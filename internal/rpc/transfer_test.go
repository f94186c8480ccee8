package rpc

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// shortTransferTimeout shrinks the rolling transfer deadline for the
// duration of a test.
func shortTransferTimeout(t *testing.T, d time.Duration) {
	t.Helper()
	old := TransferTimeout()
	SetTransferTimeout(d)
	t.Cleanup(func() { SetTransferTimeout(old) })
}

// TestReadDeadlineHungWorker: a worker that accepts the connection
// and then never responds must surface a timeout instead of stalling
// the read forever (only the dial had a deadline before).
func TestReadDeadlineHungWorker(t *testing.T) {
	shortTransferTimeout(t, 200*time.Millisecond)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hung := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		hung <- conn // hold the connection open, read and write nothing
	}()
	defer func() {
		select {
		case conn := <-hung:
			conn.Close()
		default:
		}
	}()

	start := time.Now()
	_, _, err = OpenBlockReader(ln.Addr().String(), core.Block{ID: 1, NumBytes: 64}, "s0", 0, -1)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("open against a hung worker succeeded")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("err = %v, want a timeout", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("hung open took %v, want ~TransferTimeout", elapsed)
	}
}

// TestWriteAckDeadlineHungWorker: a pipeline stage that consumes the
// whole stream but never acknowledges must time the writer out.
func TestWriteAckDeadlineHungWorker(t *testing.T) {
	shortTransferTimeout(t, 200*time.Millisecond)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Drain everything, never send the ack.
		io.Copy(io.Discard, conn)
		conn.Close()
	}()

	bw, err := OpenBlockWriter(core.Block{ID: 2, NumBytes: 64},
		[]PipelineTarget{{Worker: "w1", Address: ln.Addr().String(), Storage: "s0"}}, "test")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bw.Write(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = bw.Commit()
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("commit against a mute pipeline succeeded")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("err = %v, want a timeout", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("mute commit took %v, want ~TransferTimeout", elapsed)
	}
}

// shortHandshakeTimeout shrinks the absolute handshake deadline for
// the duration of a test.
func shortHandshakeTimeout(t *testing.T, d time.Duration) {
	t.Helper()
	old := HandshakeTimeout()
	SetHandshakeTimeout(d)
	t.Cleanup(func() { SetHandshakeTimeout(old) })
}

// TestHandshakeDeadlineHungPeer: the absolute handshake bound must
// cover the initial header exchange even when the rolling transfer
// deadline is disabled — a peer that accepts the dial and then hangs
// during the gob handshake previously stalled such a client forever.
func TestHandshakeDeadlineHungPeer(t *testing.T) {
	shortTransferTimeout(t, 0) // rolling deadlines off: handshake bound alone must save us
	shortHandshakeTimeout(t, 200*time.Millisecond)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hung := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		hung <- conn // hold the connection open, never answer the handshake
	}()
	defer func() {
		select {
		case conn := <-hung:
			conn.Close()
		default:
		}
	}()

	start := time.Now()
	_, _, err = OpenBlockReader(ln.Addr().String(), core.Block{ID: 7, NumBytes: 64}, "s0", 0, -1)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("open against a handshake-hung peer succeeded")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("err = %v, want a timeout", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("hung handshake took %v, want ~HandshakeTimeout", elapsed)
	}
}

// TestHandshakeDeadlineTricklingPeer: the handshake bound is absolute,
// so a peer that keeps the rolling deadline alive by trickling bytes
// without ever completing the header exchange still times out.
func TestHandshakeDeadlineTricklingPeer(t *testing.T) {
	shortTransferTimeout(t, 150*time.Millisecond)
	shortHandshakeTimeout(t, 400*time.Millisecond)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// Advertise an enormous binary response frame (1 MiB, the
		// limit), then trickle one byte per 100ms: each byte resets a
		// rolling deadline, but the frame never completes.
		conn.Write([]byte{frameTagBinary, 0x00, 0x00, 0x10, 0x00})
		for {
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Millisecond):
				if _, err := conn.Write([]byte{0x00}); err != nil {
					return
				}
			}
		}
	}()

	start := time.Now()
	_, _, err = OpenBlockReader(ln.Addr().String(), core.Block{ID: 8, NumBytes: 64}, "s0", 0, -1)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("open against a trickling peer succeeded")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("err = %v, want a timeout", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("trickled handshake took %v, want ~HandshakeTimeout", elapsed)
	}
}

// TestDialFailureTaggedAndHooked: dial errors carry the request ID
// and repeated failures to one address fire the registered hook at
// the threshold.
func TestDialFailureTaggedAndHooked(t *testing.T) {
	// A listener that is immediately closed yields a connection-refused
	// address nothing else will reuse mid-test.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	type firing struct {
		addr string
		n    int
	}
	fired := make(chan firing, 4)
	remove := OnRepeatedDialFailure(func(a string, consecutive int) {
		fired <- firing{a, consecutive}
	})
	defer remove()

	for i := 0; i < DialFailureThreshold; i++ {
		_, _, err := OpenBlockReaderSpan(addr, core.Block{ID: 9}, "s0", 0, -1, "deadbeefcafef00d", "")
		if err == nil {
			t.Fatal("dial to a closed address succeeded")
		}
		if !strings.Contains(err.Error(), "[req=deadbeefcafef00d]") {
			t.Fatalf("dial error %q lacks request tag", err)
		}
	}
	select {
	case f := <-fired:
		if f.addr != addr || f.n != DialFailureThreshold {
			t.Fatalf("hook fired with (%s, %d), want (%s, %d)", f.addr, f.n, addr, DialFailureThreshold)
		}
	default:
		t.Fatalf("hook did not fire after %d consecutive dial failures", DialFailureThreshold)
	}
}

// TestCloseStreamWaitAckSplit: the overlapped write path flushes the
// stream first and collects the ack separately; both halves must work
// against a well-behaved stage.
func TestCloseStreamWaitAckSplit(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	payload := []byte("overlapped block content")
	got := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var op [1]byte
		io.ReadFull(conn, op[:])
		var hdr WriteBlockHeader
		ReadFrame(conn, &hdr)
		data, _ := io.ReadAll(NewPacketReader(conn))
		got <- data
		WriteFrame(conn, WriteBlockAck{Stored: int64(len(data))})
	}()

	bw, err := OpenBlockWriter(core.Block{ID: 3, NumBytes: int64(len(payload))},
		[]PipelineTarget{{Worker: "w1", Address: ln.Addr().String(), Storage: "s0"}}, "test")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bw.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := bw.CloseStream(); err != nil {
		t.Fatal(err)
	}
	if err := bw.WaitAck(); err != nil {
		t.Fatal(err)
	}
	if string(<-got) != string(payload) {
		t.Error("pipeline stage received wrong content")
	}
}
