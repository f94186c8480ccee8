package rpc

import (
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// echoService answers GetFileInfo with the path it was asked about, and
// with ErrNotFound for the path "fail".
type echoService struct{ calls atomic.Int64 }

func (s *echoService) GetFileInfo(args *GetFileInfoArgs, reply *GetFileInfoReply) error {
	s.calls.Add(1)
	if args.Path == "fail" {
		return errors.New(EncodeError(core.ErrNotFound))
	}
	reply.Status.Path = args.Path
	return nil
}

// recordingListener keeps every connection it accepted.
type recordingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *recordingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

// echoServer serves echoService on a Server and returns its address,
// the service, and a function that severs every connection accepted so
// far and reports how many there were.
func echoServer(t *testing.T) (string, *echoService, func() int) {
	t.Helper()
	svc := &echoService{}
	srv := NewServer(nil)
	Handle(srv, "Master.GetFileInfo", svc.GetFileInfo)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rl := &recordingListener{Listener: ln}
	go srv.Serve(rl)
	t.Cleanup(srv.Close)
	sever := func() int {
		rl.mu.Lock()
		defer rl.mu.Unlock()
		for _, c := range rl.conns {
			c.Close()
		}
		return len(rl.conns)
	}
	return ln.Addr().String(), svc, sever
}

// echo calls GetFileInfo for path and returns the path the server saw.
func echo(c *MasterClient, path string) (string, error) {
	var reply GetFileInfoReply
	err := c.Call("Master.GetFileInfo", &GetFileInfoArgs{Path: path}, &reply)
	return reply.Status.Path, err
}

// TestMasterClientRedialsOnceAndSharesOneConnection: concurrent callers
// hold a connection each, no more than there are callers, and the idle
// set stays within its cap; a call on a connection the server dropped
// is redialled and retried once; a server error is neither retried nor
// flattened.
func TestMasterClientRedialsOnceAndSharesOneConnection(t *testing.T) {
	addr, svc, sever := echoServer(t)
	c := NewMasterClient(addr)
	defer c.Close()

	const callers = 8
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				want := strings.Repeat("x", g) + "/" + string(rune('a'+i%26))
				if got, err := echo(c, want); err != nil || got != want {
					t.Errorf("echo %q: got %q, err %v", want, got, err)
				}
			}
		}(g)
	}
	wg.Wait()
	if idle := c.pool.idleCount(); idle > masterIdleConns {
		t.Errorf("%d idle connections, want at most %d", idle, masterIdleConns)
	}
	n := sever()
	if n < 1 || n > callers {
		t.Fatalf("%d concurrent callers used %d connections, want 1 to %d", callers, n, callers)
	}

	if got, err := echo(c, "/after"); err != nil || got != "/after" {
		t.Fatalf("call after the server dropped the connections: got %q, err %v", got, err)
	}
	before := svc.calls.Load()
	if _, err := echo(c, "fail"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("server error = %v, want ErrNotFound", err)
	}
	if n := svc.calls.Load() - before; n != 1 {
		t.Fatalf("a server error reached the service %d times, want 1", n)
	}
	if m := sever(); m != n+1 {
		t.Fatalf("%d connections after one redial, want %d", m, n+1)
	}
}

func TestMasterClientConnectFailsFast(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if err := NewMasterClient(addr).Connect(); err == nil {
		t.Fatal("Connect to a closed port succeeded")
	}
}

// TestMasterPortUnknownMethodKeepsConnection: a method the server does
// not serve, named in the table or not, gets an error reply naming it,
// and the connection serves the next call.
func TestMasterPortUnknownMethodKeepsConnection(t *testing.T) {
	addr, _, sever := echoServer(t)
	c := NewMasterClient(addr)
	defer c.Close()
	err := c.Call("Master.Mkdir", &MkdirArgs{Path: "/d"}, &MkdirReply{})
	if err == nil || !strings.Contains(err.Error(), "Master.Mkdir") {
		t.Fatalf("unserved method: err = %v, want one naming Master.Mkdir", err)
	}
	if got, err := echo(c, "/next"); err != nil || got != "/next" {
		t.Fatalf("call after the unknown method: got %q, err %v", got, err)
	}
	if n := sever(); n != 1 {
		t.Fatalf("%d connections, want the one that got the error", n)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bp := new([]byte)
	for _, id := range []byte{200, methodIDs["Master.GetFileInfo"]} {
		req, err := appendRequest(nil, id, &GetFileInfoArgs{Path: "/raw"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		typ, body, err := readFrame(conn, bp, maxMasterFrame)
		if err != nil || typ != id {
			t.Fatalf("reply to method %d: type %d, err %v", id, typ, err)
		}
		var reply GetFileInfoReply
		err = decodeReply(body, &reply)
		if id == 200 && (err == nil || !strings.Contains(err.Error(), "method 200")) {
			t.Fatalf("method 200: err = %v, want one naming it", err)
		}
		if id != 200 && (err != nil || reply.Status.Path != "/raw") {
			t.Fatalf("call after method 200: %+v, err %v", reply, err)
		}
	}
}

// TestMasterPortBadFrameClosesOnlyThatConnection: a wrong tag or a
// length over the bound closes the connection that sent it, and a
// client calling alongside keeps being served.
func TestMasterPortBadFrameClosesOnlyThatConnection(t *testing.T) {
	addr, _, _ := echoServer(t)
	c := NewMasterClient(addr)
	defer c.Close()
	if _, err := echo(c, "/before"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{
		{0x00, 0, 0, 0, 4, 1},                    // a gob-era length prefix
		{frameTagBinary, 0xff, 0xff, 0xff, 0xff}, // 4 GiB
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(bad); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if n, err := conn.Read(make([]byte, 1)); err == nil {
			t.Errorf("frame % x: server answered %d bytes, want the connection closed", bad, n)
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Errorf("frame % x: connection left open", bad)
		}
		conn.Close()
		if got, err := echo(c, "/alongside"); err != nil || got != "/alongside" {
			t.Fatalf("call alongside a bad frame: got %q, err %v", got, err)
		}
	}
}

// TestMasterPortStalledClientDoesNotDelayOthers: a connection that sent
// half a frame holds up nobody else.
func TestMasterPortStalledClientDoesNotDelayOthers(t *testing.T) {
	addr, _, _ := echoServer(t)
	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	req, err := appendRequest(nil, methodIDs["Master.GetFileInfo"], &GetFileInfoArgs{Path: "/stalled"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stalled.Write(req[:len(req)-3]); err != nil {
		t.Fatal(err)
	}

	c := NewMasterClient(addr)
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 100; i++ {
			if _, err := echo(c, "/other"); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("calls on another connection waited for the stalled frame")
	}

	// The stalled call still completes once its frame does.
	if _, err := stalled.Write(req[len(req)-3:]); err != nil {
		t.Fatal(err)
	}
	var reply GetFileInfoReply
	typ, body, err := readFrame(stalled, new([]byte), maxMasterFrame)
	if err == nil {
		err = decodeReply(body, &reply)
	}
	if err != nil || typ != req[5] || reply.Status.Path != "/stalled" {
		t.Fatalf("stalled call: %+v, err %v", reply, err)
	}
}
