package rpc

import (
	"sync"
	"sync/atomic"
	"time"
)

// Connection pooling for the data protocol. Every outbound exchange —
// block reads, pipeline hops, replication pulls — used to
// pay a fresh TCP dial; the pool keeps connections whose previous
// exchange completed cleanly (every request byte consumed, every
// response byte read) idle per worker address and hands them to the
// next transfer, so the steady-state data path dials ~never.
//
// Invariants:
//   - Only clean connections enter the pool. A conn that failed
//     mid-transfer (short stream, broken ack, refused handshake) is
//     closed, never returned: residual bytes would poison the next
//     exchange on it.
//   - Checkout health-checks the candidate (a closed or half-closed
//     socket, e.g. after a worker restart, is discarded) and the first
//     exchange over a pooled conn retries once on a fresh dial, so
//     callers never observe staleness.
//   - Idle conns are capped per address and expire after a maximum
//     idle age kept well below the worker's own idle-close timeout, so
//     the client side almost always closes first.

// DefaultDataPoolSize is the default idle-connection cap per worker
// address.
const DefaultDataPoolSize = 4

// DefaultDataPoolIdle is the default maximum idle age. It must stay
// comfortably below the worker's dataIdleTimeout (2 minutes) so the
// pool retires conns before the worker does.
const DefaultDataPoolIdle = 30 * time.Second

// ConnPool keeps idle data connections per worker address, newest
// first, for reuse by subsequent transfers.
type ConnPool struct {
	mu      sync.Mutex
	idle    map[string][]idleConn
	maxIdle int
	maxAge  time.Duration
	closed  bool

	hits     atomic.Uint64 // checkouts served from the pool
	misses   atomic.Uint64 // checkouts that had to dial
	returns  atomic.Uint64 // clean conns accepted back
	discards atomic.Uint64 // candidates dropped by the health check
	expired  atomic.Uint64 // idle conns retired by age or cap
	stale    atomic.Uint64 // pooled conns that failed mid-handshake (retried fresh)
}

type idleConn struct {
	dc    *deadlineConn
	since time.Time
}

// NewConnPool builds a pool keeping up to maxIdle idle conns per
// address, each for at most maxAge. maxIdle <= 0 disables pooling
// (every checkout dials, every release closes).
func NewConnPool(maxIdle int, maxAge time.Duration) *ConnPool {
	if maxAge <= 0 {
		maxAge = DefaultDataPoolIdle
	}
	return &ConnPool{idle: make(map[string][]idleConn), maxIdle: maxIdle, maxAge: maxAge}
}

// take pops the newest healthy idle conn for addr, or nil when the
// caller must dial. Expired and unhealthy candidates are closed.
func (p *ConnPool) take(addr string) *deadlineConn {
	for {
		p.mu.Lock()
		if p.closed || p.maxIdle <= 0 {
			p.mu.Unlock()
			p.misses.Add(1)
			return nil
		}
		list := p.idle[addr]
		if len(list) == 0 {
			p.mu.Unlock()
			p.misses.Add(1)
			return nil
		}
		ic := list[len(list)-1]
		list = list[:len(list)-1]
		if len(list) == 0 {
			delete(p.idle, addr)
		} else {
			p.idle[addr] = list
		}
		p.mu.Unlock()

		if time.Since(ic.since) > p.maxAge {
			p.expired.Add(1)
			ic.dc.Close()
			continue
		}
		if !connAlive(ic.dc.Conn) {
			p.discards.Add(1)
			ic.dc.Close()
			continue
		}
		p.hits.Add(1)
		return ic.dc
	}
}

// put returns a clean connection to the pool, closing it instead when
// the pool is full, closed, or disabled.
func (p *ConnPool) put(dc *deadlineConn) {
	if dc == nil {
		return
	}
	p.mu.Lock()
	if p.closed || p.maxIdle <= 0 || dc.closed || len(p.idle[dc.lastAddr]) >= p.maxIdle {
		p.mu.Unlock()
		if !dc.closed {
			p.expired.Add(1)
		}
		dc.Close()
		return
	}
	p.idle[dc.lastAddr] = append(p.idle[dc.lastAddr], idleConn{dc: dc, since: time.Now()})
	p.returns.Add(1)
	p.mu.Unlock()
}

// noteStale counts a pooled conn that passed the health check but
// failed its first exchange (the worker closed it in the race window);
// the caller is retrying on a fresh dial.
func (p *ConnPool) noteStale() { p.stale.Add(1) }

// Clear closes every idle connection, leaving the pool usable. Used
// when a cluster shuts down and by tests.
func (p *ConnPool) Clear() {
	p.mu.Lock()
	idle := p.idle
	p.idle = make(map[string][]idleConn)
	p.mu.Unlock()
	for _, list := range idle {
		for _, ic := range list {
			ic.dc.Close()
		}
	}
}

// configure resizes the pool, closing idle conns beyond the new cap.
func (p *ConnPool) configure(maxIdle int, maxAge time.Duration) {
	if maxAge <= 0 {
		maxAge = DefaultDataPoolIdle
	}
	p.mu.Lock()
	p.maxIdle = maxIdle
	p.maxAge = maxAge
	var victims []*deadlineConn
	for addr, list := range p.idle {
		for len(list) > 0 && (maxIdle <= 0 || len(list) > maxIdle) {
			victims = append(victims, list[len(list)-1].dc)
			list = list[:len(list)-1]
		}
		if len(list) == 0 {
			delete(p.idle, addr)
		} else {
			p.idle[addr] = list
		}
	}
	p.mu.Unlock()
	for _, dc := range victims {
		dc.Close()
	}
}

// idleCount returns the number of idle conns currently pooled.
func (p *ConnPool) idleCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, list := range p.idle {
		n += len(list)
	}
	return n
}

// PoolStats is a point-in-time snapshot of the pool counters, served
// with the connection stats under /debug/transfers.
type PoolStats struct {
	// Hits are checkouts served by an idle conn (no dial); Misses had
	// to dial. HitRate is Hits over all checkouts.
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"`

	// Returns counts clean conns accepted back into the pool.
	// Discards are candidates dropped by the checkout health check
	// (peer closed them while idle); Expired were retired by age or
	// the per-address cap; Stale passed the health check but failed
	// their first exchange and were retried over a fresh dial.
	Returns  uint64 `json:"returns"`
	Discards uint64 `json:"discards"`
	Expired  uint64 `json:"expired"`
	Stale    uint64 `json:"stale"`

	// Idle is the number of connections currently pooled.
	Idle int `json:"idle"`
}

func (p *ConnPool) stats() PoolStats {
	s := PoolStats{
		Hits:     p.hits.Load(),
		Misses:   p.misses.Load(),
		Returns:  p.returns.Load(),
		Discards: p.discards.Load(),
		Expired:  p.expired.Load(),
		Stale:    p.stale.Load(),
		Idle:     p.idleCount(),
	}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRate = float64(s.Hits) / float64(total)
	}
	return s
}

// dataPool is the process-wide pool every outbound data exchange draws
// from.
var dataPool = NewConnPool(DefaultDataPoolSize, DefaultDataPoolIdle)

// SetDataPool reconfigures the process-wide data-connection pool: the
// per-worker idle cap (<= 0 disables pooling) and the maximum idle age
// (<= 0 selects the default). Daemons wire the -data-pool-size and
// -data-pool-idle flags here.
func SetDataPool(maxIdle int, maxAge time.Duration) {
	dataPool.configure(maxIdle, maxAge)
}

// ResetDataPool closes every idle pooled connection. Cluster teardown
// and tests use it so conns to dead workers don't linger.
func ResetDataPool() { dataPool.Clear() }

// DataPoolStats snapshots the process-wide pool counters.
func DataPoolStats() PoolStats { return dataPool.stats() }
