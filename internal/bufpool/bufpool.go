// Package bufpool provides size-classed reusable byte buffers for the
// data path. Chunk staging, pipeline copy buffers, frame scratch, and
// probe fills all draw from here instead of allocating per transfer,
// so the steady-state data path produces (close to) zero garbage.
//
// Buffers are grouped into power-of-two size classes, each backed by a
// sync.Pool, so a 64 KiB chunk buffer released by one transfer is
// picked up by the next instead of churning the heap. Get reports
// whether the buffer was freshly allocated — the flight recorder's
// per-transfer alloc-bytes stat counts only fresh buffers, making the
// pool's effectiveness directly visible in `octopus-cli transfers`.
package bufpool

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// minClassBits/maxClassBits bound the pooled size classes: 4 KiB up to
// 8 MiB. Requests outside the range are allocated directly (below) or
// rounded up to the largest class (above, when they fit).
const (
	minClassBits = 12 // 4 KiB
	maxClassBits = 23 // 8 MiB
	numClasses   = maxClassBits - minClassBits + 1
)

var classes [numClasses]sync.Pool

// MaxSize is the largest buffer the pool recycles; Get allocates larger
// ones directly and Put drops them.
const MaxSize = 1 << maxClassBits

// Counters for pool effectiveness, exposed through Stats.
var (
	gets   atomic.Uint64
	misses atomic.Uint64
	puts   atomic.Uint64
)

// classFor returns the size-class index whose buffers hold n bytes, or
// -1 when n is outside the pooled range.
func classFor(n int) int {
	if n <= 0 || n > 1<<maxClassBits {
		return -1
	}
	b := bits.Len(uint(n - 1)) // ceil(log2 n)
	if b < minClassBits {
		b = minClassBits
	}
	return b - minClassBits
}

// Get returns a buffer of length n (capacity may be larger) and
// reports whether it had to be freshly allocated — the caller's
// alloc-bytes accounting counts only fresh buffers. Buffers are not
// zeroed; callers must not read past what they wrote.
func Get(n int) (buf []byte, fresh bool) {
	gets.Add(1)
	c := classFor(n)
	if c < 0 {
		misses.Add(1)
		return make([]byte, n), true
	}
	if v := classes[c].Get(); v != nil {
		return (*(v.(*[]byte)))[:n], false
	}
	misses.Add(1)
	return make([]byte, n, 1<<(c+minClassBits)), true
}

// Put returns a buffer obtained from Get to its size class. Buffers
// whose capacity matches no class (Get allocated them directly) are
// dropped for the GC. Callers must not retain any reference to buf
// after Put.
func Put(buf []byte) {
	c := classFor(cap(buf))
	if c < 0 || cap(buf) != 1<<(c+minClassBits) {
		return
	}
	puts.Add(1)
	b := buf[:cap(buf)]
	classes[c].Put(&b)
}

// Stats is a point-in-time snapshot of the pool counters.
type Stats struct {
	// Gets counts Get calls; Misses the ones that had to allocate
	// (fresh buffers); Puts the buffers returned for reuse.
	Gets   uint64 `json:"gets"`
	Misses uint64 `json:"misses"`
	Puts   uint64 `json:"puts"`
}

// Snapshot returns the current pool counters.
func Snapshot() Stats {
	return Stats{Gets: gets.Load(), Misses: misses.Load(), Puts: puts.Load()}
}
