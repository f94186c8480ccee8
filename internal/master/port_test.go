package master

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/rpc"
)

// statFrame returns the request frame stat sends, read off a listener
// that hangs up instead of answering.
func statFrame(t *testing.T) []byte {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	frame := make(chan []byte, 1)
	go func() {
		defer ln.Close() // the client's redial is refused
		conn, err := ln.Accept()
		if err != nil {
			frame <- nil
			return
		}
		defer conn.Close()
		hdr := make([]byte, 5)
		if _, err := io.ReadFull(conn, hdr); err != nil {
			frame <- nil
			return
		}
		body := make([]byte, binary.LittleEndian.Uint32(hdr[1:]))
		if _, err := io.ReadFull(conn, body); err != nil {
			frame <- nil
			return
		}
		frame <- append(hdr, body...)
	}()
	c := rpc.NewMasterClient(ln.Addr().String())
	defer c.Close()
	stat(c) // fails: the listener hangs up, then refuses the redial
	f := <-frame
	if f == nil {
		t.Fatal("no request frame captured")
	}
	return f
}

// stat calls GetFileInfo on the root through c.
func stat(c *rpc.MasterClient) error {
	return c.Call("Master.GetFileInfo", &rpc.GetFileInfoArgs{Path: "/"}, &rpc.GetFileInfoReply{})
}

// TestMasterPortCloseWithCallsInFlight: Close returns while callers keep
// calling, and each caller's call after it fails in transport, not with
// an error the master sent.
func TestMasterPortCloseWithCallsInFlight(t *testing.T) {
	m := testMaster(t)
	const callers = 4
	errs := make(chan error, callers)
	var started sync.WaitGroup
	started.Add(callers)
	for i := 0; i < callers; i++ {
		go func() {
			c := rpc.NewMasterClient(m.Addr())
			defer c.Close()
			first := true
			for {
				err := stat(c)
				if first {
					first = false
					started.Done()
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	started.Wait()
	closed := make(chan struct{})
	go func() {
		m.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return with calls in flight")
	}
	for i := 0; i < callers; i++ {
		select {
		case err := <-errs:
			if ne := (net.Error)(nil); !errors.As(err, &ne) {
				t.Errorf("caller's error after Close = %v, want a transport error", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("a caller kept being served after Close")
		}
	}
}

// TestMasterPortInflightDrainsAfterCutConnection: after a burst of calls
// in which one client hangs up before its reply and another mid-frame,
// octopus_master_rpc_inflight is back to exactly zero.
func TestMasterPortInflightDrainsAfterCutConnection(t *testing.T) {
	m := testMaster(t)
	frame := statFrame(t)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := rpc.NewMasterClient(m.Addr())
			defer c.Close()
			for j := 0; j < 200; j++ {
				if err := stat(c); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for _, cut := range []int{0, 3} { // hang up after the whole frame, and mid-frame
		conn, err := net.Dial("tcp", m.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame[:len(frame)-cut]); err != nil {
			t.Fatal(err)
		}
		conn.Close()
	}
	wg.Wait()
	deadline := time.Now().Add(30 * time.Second)
	for m.metrics.rpcInflight.Value() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if v := m.metrics.rpcInflight.Value(); v != 0 {
		t.Fatalf("octopus_master_rpc_inflight = %v after the burst, want 0", v)
	}
}
