package rpc

import (
	"sync"
	"sync/atomic"
)

// Process-wide data-connection lifecycle counters. They cover the
// dialling side of the data protocol — every outbound block read,
// pipeline hop and replication pull goes through dialData — plus the
// control-frame totals from both directions.
// The counters quantify the per-transfer connection churn the
// data-path roadmap attributes the protocol's overhead to: one dial,
// one handshake, and fresh buffers per block.
var connStats struct {
	dials        atomic.Uint64
	dialFailures atomic.Uint64
	handshakes   atomic.Uint64
	open         atomic.Int64
	bytesRead    atomic.Uint64
	bytesWritten atomic.Uint64
	frames       atomic.Uint64
	frameBytes   atomic.Uint64
}

// ConnStats is a point-in-time snapshot of the process-wide
// data-connection lifecycle counters, served under /debug/transfers.
type ConnStats struct {
	// Dials counts outbound data-connection attempts; DialFailures
	// the ones that never connected. Handshakes counts connections
	// that completed the opcode + header exchange.
	Dials        uint64 `json:"dials"`
	DialFailures uint64 `json:"dial_failures"`
	Handshakes   uint64 `json:"handshakes"`

	// OpenConns is the number of dialled data connections currently
	// open.
	OpenConns int64 `json:"open_conns"`

	// BytesRead / BytesWritten are totals over dialled data
	// connections; BytesPerConn is their sum averaged over completed
	// dials, the churn ratio (low = many connections doing little
	// work each).
	BytesRead    uint64 `json:"bytes_read"`
	BytesWritten uint64 `json:"bytes_written"`
	BytesPerConn uint64 `json:"bytes_per_conn"`

	// Frames / FrameBytes count control frames encoded or decoded by
	// this process (headers, acks and block-stream window headers) —
	// the framing cost the per-transfer header phases measure in time.
	Frames     uint64 `json:"frames"`
	FrameBytes uint64 `json:"frame_bytes"`

	// Pool reports the data-connection pool counters: reuse rate,
	// returns, and why candidates were dropped.
	Pool PoolStats `json:"pool"`
}

// DataConnStats snapshots the process-wide connection lifecycle
// counters.
func DataConnStats() ConnStats {
	s := ConnStats{
		Dials:        connStats.dials.Load(),
		DialFailures: connStats.dialFailures.Load(),
		Handshakes:   connStats.handshakes.Load(),
		OpenConns:    connStats.open.Load(),
		BytesRead:    connStats.bytesRead.Load(),
		BytesWritten: connStats.bytesWritten.Load(),
		Frames:       connStats.frames.Load(),
		FrameBytes:   connStats.frameBytes.Load(),
		Pool:         dataPool.stats(),
	}
	if succeeded := s.Dials - s.DialFailures; succeeded > 0 {
		s.BytesPerConn = (s.BytesRead + s.BytesWritten) / succeeded
	}
	return s
}

// DialFailureThreshold is the consecutive-failure streak to the same
// address at which the registered hooks fire (and fire again at every
// further multiple), so connect flaps surface as journal events
// without one blip causing noise.
const DialFailureThreshold = 3

var dialFailMu sync.Mutex
var dialFailStreaks = make(map[string]int)
var dialFailHooks = make(map[int]func(addr string, consecutive int))
var dialFailHookSeq int

// OnRepeatedDialFailure registers a hook called when consecutive data
// dials to one address fail DialFailureThreshold times in a row (a
// successful dial resets the streak). Workers use it to journal
// worker_unreachable events. The returned function deregisters the
// hook; hooks run synchronously on the failing dial path and must be
// cheap and non-blocking.
func OnRepeatedDialFailure(hook func(addr string, consecutive int)) (remove func()) {
	dialFailMu.Lock()
	defer dialFailMu.Unlock()
	id := dialFailHookSeq
	dialFailHookSeq++
	dialFailHooks[id] = hook
	return func() {
		dialFailMu.Lock()
		defer dialFailMu.Unlock()
		delete(dialFailHooks, id)
	}
}

func noteDialFailure(addr string) {
	connStats.dialFailures.Add(1)
	dialFailMu.Lock()
	dialFailStreaks[addr]++
	streak := dialFailStreaks[addr]
	var hooks []func(string, int)
	if streak%DialFailureThreshold == 0 {
		hooks = make([]func(string, int), 0, len(dialFailHooks))
		for _, h := range dialFailHooks {
			hooks = append(hooks, h)
		}
	}
	dialFailMu.Unlock()
	for _, h := range hooks {
		h(addr, streak)
	}
}

func noteDialSuccess(addr string) {
	dialFailMu.Lock()
	delete(dialFailStreaks, addr)
	dialFailMu.Unlock()
}
