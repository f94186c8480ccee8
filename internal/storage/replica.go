package storage

import (
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
)

// Replica is one stored replica opened to be read: its chunk sums and
// its bytes, from one open. It is the one way out of a store: a served
// read, a copy, the probe and a scrub all read through it. Opened
// through Media.OpenReplica, its bytes are paced at the media's read
// rate, each read accounted after the call that takes it from the
// device, and it counts as an active connection until Close.
type Replica struct {
	block core.BlockID
	sums  []uint32
	size  int64
	data  []byte   // a memory replica's bytes, shared with the store
	f     *os.File // a disk replica's file
	send  sendState

	limit *RateLimiter
	st    *IOStats
	conns *atomic.Int64
	bufs  [][]byte
}

// OpenReplica opens a stored replica to serve a read. Opening it (the
// disk store's trailer read) and Chunk are device time in st, which
// may be nil; Send is SendNs, each pacing sleep ThrottleWaitNs, and a
// buffer the pool freshly allocates for a disk read AllocBytes.
func (m *Media) OpenReplica(b core.Block, st *IOStats) (*Replica, error) {
	if st == nil {
		st = &IOStats{}
	}
	start := time.Now()
	r, err := m.store.OpenReplica(b)
	st.DeviceNs += time.Since(start).Nanoseconds()
	if err != nil {
		return nil, err
	}
	r.limit, r.st, r.conns = m.readLimit, st, &m.conns
	m.conns.Add(1)
	return r, nil
}

// Sums returns the replica's chunk checksums. The slice is shared:
// callers must not modify it.
func (r *Replica) Sums() []uint32 { return r.sums }

// Chunk returns chunk i of the replica, i below len(Sums()), read from
// the device and checked against its stored sum: a chunk that does not
// match is core.ErrCorrupt. A memory replica returns its own bytes,
// which the caller must not modify; a disk replica reads into buf,
// which must hold a chunk, or, when buf is nil, into a buffer the
// replica holds until Close.
func (r *Replica) Chunk(i int, buf []byte) ([]byte, error) {
	start := time.Now()
	p, err := r.chunk(i, buf)
	r.st.DeviceNs += time.Since(start).Nanoseconds()
	if err != nil {
		return nil, err
	}
	r.pace(len(p))
	return p, nil
}

// Send writes the n bytes at offset off to tc without reading them
// into this process: a memory replica by Write straight from the
// store's slice, and a disk replica by sendfile (through a buffer where
// the platform has no sendfile, see sendfile_other.go). The bytes go
// out in steps of the media's pacing burst, rounded down to whole
// chunks and at least one chunk; each step is one call, paced after it
// returns. Pacing cannot be finer than the burst (see
// RateLimiter.Burst), so an unthrottled replica sends the whole range
// in one call and a throttled one is still never more than one step
// ahead of its rate.
func (r *Replica) Send(tc *net.TCPConn, off int64, n int) error {
	if err := r.check(off, n); err != nil {
		return err
	}
	step := r.step()
	for n > 0 {
		k := min(n, step)
		start := time.Now()
		var err error
		if r.data != nil {
			_, err = tc.Write(r.data[off : off+int64(k)])
		} else {
			err = r.sendfile(tc, off, k)
		}
		r.st.SendNs += time.Since(start).Nanoseconds()
		if err != nil {
			return fmt.Errorf("storage: sending %d bytes at %d: %w", k, off, err)
		}
		r.pace(k)
		off, n = off+int64(k), n-k
	}
	return nil
}

// step returns the bytes Send moves per call: the media's pacing burst
// rounded down to whole chunks, and at least one chunk.
func (r *Replica) step() int {
	return max(r.limit.Burst()/core.ChunkSize, 1) * core.ChunkSize
}

// chunk is Chunk untimed and unpaced.
func (r *Replica) chunk(i int, buf []byte) ([]byte, error) {
	off := int64(i) * core.ChunkSize
	n := min(core.ChunkSize, r.size-off)
	var p []byte
	if r.data != nil {
		p = r.data[off : off+n]
	} else {
		if buf == nil {
			var fresh bool
			buf, fresh = bufpool.Get(int(n))
			if fresh {
				r.st.AllocBytes += int64(cap(buf))
			}
			r.bufs = append(r.bufs, buf)
		}
		p = buf[:n]
		if _, err := r.f.ReadAt(p, off); err != nil {
			return nil, fmt.Errorf("storage: block %s: reading chunk %d: %w", r.block, i, err)
		}
	}
	if got := core.ChunkSum(p); got != r.sums[i] {
		return nil, fmt.Errorf("storage: block %s chunk %d checksum %08x != %08x: %w", r.block, i, got, r.sums[i], core.ErrCorrupt)
	}
	return p, nil
}

// check refuses a range outside the replica.
func (r *Replica) check(off int64, n int) error {
	if off < 0 || n < 0 || off > r.size-int64(n) {
		return fmt.Errorf("storage: range [%d,+%d) of a %d-byte replica", off, n, r.size)
	}
	return nil
}

// pace accounts n bytes at the media's read rate.
func (r *Replica) pace(n int) {
	r.st.ThrottleWaitNs += r.limit.Wait(n).Nanoseconds()
}

// Close releases the replica's file and buffers and its connection
// count. A second Close does nothing.
func (r *Replica) Close() error {
	for _, p := range r.bufs {
		bufpool.Put(p)
	}
	r.bufs = nil
	if r.conns != nil {
		r.conns.Add(-1)
		r.conns = nil
	}
	if f := r.f; f != nil {
		r.f = nil
		return f.Close()
	}
	return nil
}
