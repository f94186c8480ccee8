package storage

import (
	"io"
	"net"
	"os"
	"syscall"
)

// sendState is a disk replica's sendfile state: the connection's raw
// descriptor access and the step function it runs, both made once per
// replica, so a chunk sent costs no allocation. (io.Copy from a
// LimitedReader over the file reaches the same system call through
// (*net.TCPConn).ReadFrom, but allocates on every call.)
type sendState struct {
	conn *net.TCPConn
	raw  syscall.RawConn
	step func(fd uintptr) bool
	src  int   // the replica file's descriptor
	off  int64 // file offset of the next byte to send
	left int   // bytes of the current send still to go
	err  error
}

// sendfile sends the n bytes at off from the replica file to tc with
// the sendfile system call, waiting on the connection's poller while
// the socket buffer is full. The file's own offset does not move.
func (r *Replica) sendfile(tc *net.TCPConn, off int64, n int) error {
	s := &r.send
	if s.conn != tc {
		raw, err := tc.SyscallConn()
		if err != nil {
			return err
		}
		s.conn, s.raw, s.src = tc, raw, int(r.f.Fd())
		s.step = s.sendSome
	}
	s.off, s.left, s.err = off, n, nil
	if err := s.raw.Write(s.step); err != nil {
		return err
	}
	return s.err
}

// sendSome sends what the socket takes of the current send, returning
// false to wait until it can take more.
func (s *sendState) sendSome(fd uintptr) bool {
	for s.left > 0 {
		m, err := syscall.Sendfile(int(fd), s.src, &s.off, s.left)
		if m > 0 {
			s.left -= m
		}
		switch {
		case err == syscall.EAGAIN:
			return false
		case err == syscall.EINTR:
		case err != nil:
			s.err = os.NewSyscallError("sendfile", err)
			return true
		case m == 0:
			s.err = io.ErrUnexpectedEOF // the file ended early
			return true
		}
	}
	return true
}

// fileSize returns the size of f without allocating.
func fileSize(f *os.File) (int64, error) {
	var st syscall.Stat_t
	if err := syscall.Fstat(int(f.Fd()), &st); err != nil {
		return 0, os.NewSyscallError("fstat", err)
	}
	return st.Size, nil
}
