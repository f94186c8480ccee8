package rpc

import (
	"errors"
	"net"
	netrpc "net/rpc"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

type EchoArgs struct {
	N    int
	Fail bool
}

type echoService struct{ calls atomic.Int64 }

func (s *echoService) Echo(args *EchoArgs, reply *int) error {
	s.calls.Add(1)
	if args.Fail {
		return errors.New(EncodeError(core.ErrNotFound))
	}
	*reply = args.N
	return nil
}

// echoServer serves echoService as "Master" and returns its address, the
// service, and a function that severs every connection accepted so far
// and reports how many there were.
func echoServer(t *testing.T) (string, *echoService, func() int) {
	t.Helper()
	svc := &echoService{}
	srv := netrpc.NewServer()
	if err := srv.RegisterName("Master", svc); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			go srv.ServeConn(conn)
		}
	}()
	sever := func() int {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
		return len(conns)
	}
	return ln.Addr().String(), svc, sever
}

// TestMasterClientRedialsOnceAndSharesOneConnection: concurrent callers
// share one connection; a call on a connection the server dropped is
// redialled and retried once; a server error is neither retried nor
// flattened.
func TestMasterClientRedialsOnceAndSharesOneConnection(t *testing.T) {
	addr, svc, sever := echoServer(t)
	c := NewMasterClient(addr)
	defer c.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var got int
				if err := c.Call("Master.Echo", &EchoArgs{N: g*100 + i}, &got); err != nil || got != g*100+i {
					t.Errorf("echo %d: got %d, err %v", g*100+i, got, err)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := sever(); n != 1 {
		t.Fatalf("400 concurrent calls used %d connections, want 1", n)
	}

	var got int
	if err := c.Call("Master.Echo", &EchoArgs{N: 7}, &got); err != nil || got != 7 {
		t.Fatalf("call after the server dropped the connection: got %d, err %v", got, err)
	}
	before := svc.calls.Load()
	if err := c.Call("Master.Echo", &EchoArgs{Fail: true}, &got); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("server error = %v, want ErrNotFound", err)
	}
	if n := svc.calls.Load() - before; n != 1 {
		t.Fatalf("a server error reached the service %d times, want 1", n)
	}
	if n := sever(); n != 2 {
		t.Fatalf("%d connections after one redial, want 2", n)
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
