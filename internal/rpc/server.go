package rpc

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Server serves the master protocol. Each accepted connection gets one
// goroutine that reads a request frame, runs its handler inline and
// writes the reply: a connection carries one call at a time, a caller
// wanting concurrency opens more connections, and no call waits behind
// a goroutine start or a response queue.
type Server struct {
	handlers [len(methods)]handler
	inflight *metrics.Gauge

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// handler decodes one request body, runs the method and appends the
// reply frame to out. arrival is when the request frame was read.
type handler func(body []byte, arrival int64, out []byte) []byte

// NewServer returns a server with no methods. inflight, which may be
// nil, counts requests read but not yet answered.
func NewServer(inflight *metrics.Gauge) *Server {
	if inflight == nil {
		inflight = new(metrics.Gauge)
	}
	return &Server{inflight: inflight, conns: make(map[net.Conn]struct{})}
}

// Handle serves the named method with fn, whose argument and reply
// types must be the ones the method table lists for it. A request's
// ReqHeader is stamped with its arrival time (ReqHeader.Arrival) before
// fn runs; fn's error travels to the caller as its message.
func Handle[A, R any](s *Server, name string, fn func(*A, *R) error) {
	id, ok := methodIDs[name]
	if !ok {
		panic("rpc: no master method " + name)
	}
	_, argsOK := methods[id].args().(*A)
	_, replyOK := methods[id].reply().(*R)
	if !argsOK || !replyOK {
		panic(fmt.Sprintf("rpc: %s takes %T and %T", name, methods[id].args(), methods[id].reply()))
	}
	s.handlers[id] = func(body []byte, arrival int64, out []byte) []byte {
		args, reply := new(A), new(R)
		if err := decodeBody(body, args); err != nil {
			return appendReply(out, id, fmt.Sprintf("rpc: %s request: %v", name, err), nil)
		}
		if h, ok := any(args).(interface{ setArrival(int64) }); ok {
			h.setArrival(arrival)
		}
		if err := fn(args, reply); err != nil {
			return appendReply(out, id, err.Error(), nil)
		}
		return appendReply(out, id, "", reply)
	}
}

// Serve accepts connections on ln until Close or until ln is closed.
// Any other accept error is retried after a pause: running out of
// descriptors passes.
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	closed := s.closed
	s.mu.Unlock()
	if closed {
		ln.Close()
		return
	}
	for {
		conn, err := ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return
		}
		if err != nil {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if !s.track(conn) {
			conn.Close()
			return
		}
		go s.serveConn(conn)
	}
}

// track registers an accepted connection for Close, unless the server
// is closed already.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	return true
}

// Close stops accepting, closes every connection and waits until each
// connection's goroutine has finished the call in hand; the reply to it
// is lost with the connection.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// serveConn answers one connection's calls in order until it fails or
// sends something that is not a frame, which closes only it.
func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
		s.wg.Done()
	}()
	r := bufio.NewReader(conn)
	in, out := getScratch(), getScratch()
	defer putScratch(in)
	defer putScratch(out)
	for {
		typ, body, err := readFrame(r, in, maxMasterFrame)
		if err != nil {
			return
		}
		arrival := time.Now().UnixNano()
		s.inflight.Add(1)
		*out = s.dispatch((*out)[:0], typ, body, arrival)
		_, err = conn.Write(*out)
		s.inflight.Add(-1)
		if err != nil {
			return
		}
		if cap(*in) > maxPooledScratch || cap(*out) > maxPooledScratch {
			// One image or long listing must not pin its buffers for the
			// connection's life.
			*in, *out = nil, nil
		}
	}
}

func (s *Server) dispatch(out []byte, id byte, body []byte, arrival int64) []byte {
	if int(id) < len(s.handlers) && s.handlers[id] != nil {
		return s.handlers[id](body, arrival, out)
	}
	return appendReply(out, id, "rpc: unknown method "+methodName(id), nil)
}
