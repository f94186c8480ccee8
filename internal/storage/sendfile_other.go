//go:build !linux

package storage

import "net"

// sendState is empty where the kernel copy is not used.
type sendState struct{}

// sendfile sends the n bytes at off from the replica file to tc,
// through a buffer: this platform reads the chunk into the process.
func (r *Replica) sendfile(tc *net.TCPConn, off int64, n int) error {
	p, err := r.read(off, n)
	if err == nil {
		_, err = tc.Write(p)
	}
	return err
}
