//go:build !linux

package storage

import (
	"net"
	"os"

	"repro/internal/bufpool"
	"repro/internal/core"
)

// sendState is empty where the kernel copy is not used.
type sendState struct{}

// sendfile sends the n bytes at off from the replica file to tc
// through one pooled chunk-sized buffer: this platform reads the bytes
// into the process, a chunk at a time, however long the range.
func (r *Replica) sendfile(tc *net.TCPConn, off int64, n int) error {
	p, fresh := bufpool.Get(core.ChunkSize)
	if fresh {
		r.st.AllocBytes += int64(cap(p))
	}
	defer bufpool.Put(p)
	for n > 0 {
		k := min(n, len(p))
		if _, err := r.f.ReadAt(p[:k], off); err != nil {
			return err
		}
		if _, err := tc.Write(p[:k]); err != nil {
			return err
		}
		off, n = off+int64(k), n-k
	}
	return nil
}

// fileSize returns the size of f.
func fileSize(f *os.File) (int64, error) {
	info, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}
