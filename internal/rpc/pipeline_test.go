package rpc

import (
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// statCalls returns a batch of GetFileInfo calls, one per path.
func statCalls(paths ...string) []Call {
	calls := make([]Call, len(paths))
	for i, p := range paths {
		calls[i] = Call{Method: "Master.GetFileInfo", Args: &GetFileInfoArgs{Path: p}, Reply: &GetFileInfoReply{}}
	}
	return calls
}

// statPath returns the path a GetFileInfo call's reply names.
func statPath(call Call) string { return call.Reply.(*GetFileInfoReply).Status.Path }

// TestMasterClientBatchRepliesInOrder: a batch of three calls gets
// three replies, in order, each with its own handler's error, and a
// failing middle call leaves its neighbours' replies intact. The batch
// is one round trip on one connection.
func TestMasterClientBatchRepliesInOrder(t *testing.T) {
	addr, svc, sever := echoServer(t)
	c := NewMasterClient(addr)
	defer c.Close()
	calls := statCalls("/first", "fail", "/third")
	c.Batch(calls)
	if statPath(calls[0]) != "/first" || calls[0].Err != nil {
		t.Errorf("first call: path %q, err %v", statPath(calls[0]), calls[0].Err)
	}
	if !errors.Is(calls[1].Err, core.ErrNotFound) {
		t.Errorf("middle call: err %v, want ErrNotFound", calls[1].Err)
	}
	if statPath(calls[2]) != "/third" || calls[2].Err != nil {
		t.Errorf("third call: path %q, err %v", statPath(calls[2]), calls[2].Err)
	}
	for i, call := range calls {
		if call.Done.IsZero() || i > 0 && call.Done.Before(calls[i-1].Done) {
			t.Errorf("call %d: reply read at %v, after call %d's at %v", i, call.Done, i-1, calls[max(i-1, 0)].Done)
		}
	}
	if n := svc.calls.Load(); n != 3 {
		t.Errorf("the service ran %d calls, want 3", n)
	}
	if n := sever(); n != 1 {
		t.Errorf("the batch used %d connections, want 1", n)
	}
}

// dropConn closes itself when the server's read number drop returns,
// after the bytes arrived: the client has sent its request and sees the
// connection die under it, past the pool's health check.
type dropConn struct {
	net.Conn
	reads atomic.Int32
	drop  int32
}

func (c *dropConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.reads.Add(1) == c.drop {
		c.Conn.Close()
		return 0, net.ErrClosed
	}
	return n, err
}

// TestMasterClientBatchRetriesOnceOnDroppedConnection: a batch on a
// pooled connection the server drops as the batch arrives is redialled
// and sent again, whole, once; when the fresh connection drops too,
// every call of the batch reports the transport failure.
func TestMasterClientBatchRetriesOnceOnDroppedConnection(t *testing.T) {
	addr, svc, sever := echoServerWrapped(t, func(n int, c net.Conn) net.Conn {
		switch n {
		case 0: // serves one call, then drops the batch
			return &dropConn{Conn: c, drop: 2}
		case 1: // serves the retry
			return c
		}
		return &dropConn{Conn: c, drop: 1}
	})
	c := NewMasterClient(addr)
	defer c.Close()
	if got, err := echo(c, "/pooled"); err != nil || got != "/pooled" {
		t.Fatalf("first call: got %q, err %v", got, err)
	}
	calls := statCalls("/a", "/b")
	c.Batch(calls)
	for i, want := range []string{"/a", "/b"} {
		if calls[i].Err != nil || statPath(calls[i]) != want {
			t.Fatalf("retried call %d: path %q, err %v", i, statPath(calls[i]), calls[i].Err)
		}
	}
	if n := svc.calls.Load(); n != 3 {
		t.Fatalf("the service ran %d calls, want 3: the dropped batch ran none, its retry both", n)
	}
	if n := sever(); n != 2 {
		t.Fatalf("%d connections, want the pooled one and one redial", n)
	}

	// Every later connection drops at its first read: the one retry
	// fails too, and the batch gives up.
	calls = statCalls("/x", "/y")
	c.Batch(calls)
	for i, call := range calls {
		if call.Err == nil || !strings.Contains(call.Err.Error(), "calling master") {
			t.Errorf("call %d on dropping connections: err %v, want the transport's", i, call.Err)
		}
	}
	if n := sever(); n != 4 {
		t.Fatalf("%d connections after the failed batch, want 4: one attempt and one retry", n)
	}
}

// countingConn counts the server's writes.
type countingConn struct {
	net.Conn
	writes *atomic.Int32
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestMasterPortPipelinedFrames: two request frames sent in one write
// are both answered, in order, in one write; a good frame followed by
// garbage is answered before the garbage closes the connection.
func TestMasterPortPipelinedFrames(t *testing.T) {
	var writes atomic.Int32
	addr, _, _ := echoServerWrapped(t, func(_ int, c net.Conn) net.Conn {
		return countingConn{Conn: c, writes: &writes}
	})
	id := methodIDs["Master.GetFileInfo"]
	frames := func(paths ...string) []byte {
		var buf []byte
		for _, p := range paths {
			var err error
			if buf, err = appendRequest(buf, id, &GetFileInfoArgs{Path: p}); err != nil {
				t.Fatal(err)
			}
		}
		return buf
	}
	readReply := func(conn net.Conn) (string, error) {
		typ, body, err := readFrame(conn, new([]byte), maxMasterFrame)
		if err != nil {
			return "", err
		}
		if typ != id {
			t.Fatalf("reply of type %d, want %d", typ, id)
		}
		var reply GetFileInfoReply
		err = decodeReply(body, &reply)
		return reply.Status.Path, err
	}

	for _, tail := range [][]byte{nil, {0x00, 0xde, 0xad}} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(30 * time.Second))
		paths := []string{"/one", "/two"}
		if tail != nil {
			paths = paths[:1]
		}
		writes.Store(0)
		if _, err := conn.Write(append(frames(paths...), tail...)); err != nil {
			t.Fatal(err)
		}
		for _, want := range paths {
			if got, err := readReply(conn); err != nil || got != want {
				t.Fatalf("tail % x: reply %q, err %v, want %q", tail, got, err, want)
			}
		}
		if tail == nil {
			if n := writes.Load(); n != 1 {
				t.Errorf("two pipelined frames answered in %d writes, want 1", n)
			}
		} else if _, err := readReply(conn); err == nil {
			t.Errorf("garbage after a frame: connection left open")
		}
		conn.Close()
	}
}

// TestMasterPortBatchInflightDrains: a pipelined batch's requests stay
// in flight until their replies are written, one, two, then three of
// them, and the gauge drains to zero once the batch is answered.
func TestMasterPortBatchInflightDrains(t *testing.T) {
	inflight := new(metrics.Gauge)
	srv := NewServer(inflight)
	Handle(srv, "Master.GetFileInfo", func(args *GetFileInfoArgs, reply *GetFileInfoReply) error {
		reply.Status.Path = args.Path
		reply.Status.Length = int64(inflight.Value())
		return nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	c := NewMasterClient(ln.Addr().String())
	defer c.Close()
	calls := statCalls("/1", "/2", "/3")
	c.Batch(calls)
	for i, call := range calls {
		if call.Err != nil {
			t.Fatal(call.Err)
		}
		if n := call.Reply.(*GetFileInfoReply).Status.Length; n != int64(i+1) {
			t.Errorf("call %d ran with %d requests in flight, want %d", i, n, i+1)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for inflight.Value() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if v := inflight.Value(); v != 0 {
		t.Fatalf("in-flight gauge = %v after the batch, want 0", v)
	}
}
