package heat

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Delta is one block's raw (undecayed) access counts accumulated on a
// worker since the previous heartbeat drain. Workers ship these
// piggybacked on HeartbeatArgs; the master folds them into its
// decayed heat maps.
type Delta struct {
	Block      core.BlockID
	ReadOps    uint32
	WriteOps   uint32
	ReadBytes  int64
	WriteBytes int64
}

// cell packs an op count and a byte count into one uint64 so the data
// path pays exactly one atomic add per operation:
//
//	bits 40..63  op count   (24 bits, 16.7M ops per drain window)
//	bits  0..39  byte count (40 bits, ~1.1 TiB per drain window)
//
// Heartbeats drain every few seconds, so neither field can plausibly
// overflow between drains (a single worker cannot move a tebibyte or
// serve sixteen million block ops in one window).
const (
	cellOpShift   = 40
	cellByteMask  = (uint64(1) << cellOpShift) - 1
	cellOneOp     = uint64(1) << cellOpShift
	cellByteLimit = int64(cellByteMask)
)

// pair holds one block's read and write cells.
type pair struct {
	read  atomic.Uint64
	write atomic.Uint64
}

// Collector accumulates per-block access deltas on a worker's data
// path. Touch is lock-free — a sync.Map load plus one atomic add —
// so it meets the "one atomic update per block op" budget. Drain and
// Restore run at heartbeat granularity. A cell lives until Forget,
// which the worker calls when it deletes the block, so memory is
// bounded by the blocks the worker holds (one 16-byte pair each) and
// no Touch is ever lost to a concurrent Drain.
type Collector struct {
	cells sync.Map // core.BlockID -> *pair
}

// NewCollector builds an empty Collector.
func NewCollector() *Collector {
	return &Collector{}
}

// Touch records one operation of kind k moving n bytes against block
// id. Safe for concurrent use; one atomic add on the fast path.
func (c *Collector) Touch(id core.BlockID, kind Kind, n int64) {
	if n < 0 {
		n = 0
	} else if n > cellByteLimit {
		n = cellByteLimit
	}
	p, ok := c.cells.Load(id)
	if !ok {
		p, _ = c.cells.LoadOrStore(id, &pair{})
	}
	cellp := &p.(*pair).read
	if kind == Write {
		cellp = &p.(*pair).write
	}
	cellp.Add(cellOneOp | uint64(n))
}

// Drain atomically swaps out and returns all non-zero deltas, sorted
// by block ID.
func (c *Collector) Drain() []Delta {
	var out []Delta
	c.cells.Range(func(key, value any) bool {
		p := value.(*pair)
		r := p.read.Swap(0)
		w := p.write.Swap(0)
		if r == 0 && w == 0 {
			return true
		}
		out = append(out, Delta{
			Block:      key.(core.BlockID),
			ReadOps:    uint32(r >> cellOpShift),
			WriteOps:   uint32(w >> cellOpShift),
			ReadBytes:  int64(r & cellByteMask),
			WriteBytes: int64(w & cellByteMask),
		})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Block < out[j].Block })
	return out
}

// Restore folds previously drained deltas back in, used when the
// heartbeat carrying them failed so the counts survive master
// hiccups.
func (c *Collector) Restore(deltas []Delta) {
	for _, d := range deltas {
		p, ok := c.cells.Load(d.Block)
		if !ok {
			p, _ = c.cells.LoadOrStore(d.Block, &pair{})
		}
		pr := p.(*pair)
		if d.ReadOps > 0 || d.ReadBytes > 0 {
			pr.read.Add(uint64(d.ReadOps)<<cellOpShift | uint64(d.ReadBytes)&cellByteMask)
		}
		if d.WriteOps > 0 || d.WriteBytes > 0 {
			pr.write.Add(uint64(d.WriteOps)<<cellOpShift | uint64(d.WriteBytes)&cellByteMask)
		}
	}
}

// Forget drops a block's cell immediately (e.g. after the block is
// invalidated on this worker).
func (c *Collector) Forget(id core.BlockID) {
	c.cells.Delete(id)
}
