package master

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/trace"
)

// fanOut calls fn concurrently with every live worker's ID and data
// address and returns the results ordered by worker ID. It is how the
// master collects what only the workers hold — spans of a trace, pages
// of their flight recorders — over the existing data port.
func fanOut[R any](m *Master, fn func(id core.WorkerID, addr string) R) []R {
	type target struct {
		id   core.WorkerID
		addr string
	}
	m.mu.RLock()
	targets := make([]target, 0, len(m.workers))
	for id, w := range m.workers {
		targets = append(targets, target{id, w.dataAddr})
	}
	m.mu.RUnlock()
	sort.Slice(targets, func(a, b int) bool { return targets[a].id < targets[b].id })

	out := make([]R, len(targets))
	var wg sync.WaitGroup
	for i, t := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = fn(t.id, t.addr)
		}()
	}
	wg.Wait()
	return out
}

// AssembleTrace merges the master's retained spans for traceID
// (its own handler spans plus any client-reported ones) with spans
// fetched from every live worker. Workers that fail to answer are
// skipped — a partial timeline beats none — but if nothing at all is
// found the trace is reported as unknown.
func (m *Master) AssembleTrace(traceID string) ([]trace.Span, error) {
	sets := fanOut(m, func(id core.WorkerID, addr string) []trace.Span {
		var resp rpc.TraceDumpResponse
		if err := rpc.Dump(addr, rpc.OpTraceDump, rpc.TraceDumpHeader{TraceID: traceID}, &resp); err != nil {
			m.cfg.Logger.Warn("trace fan-out failed",
				"worker", id, "trace", traceID, "err", err)
		}
		return resp.Spans
	})
	merged := trace.Merge(append([][]trace.Span{m.traces.Get(traceID)}, sets...)...)
	if len(merged) == 0 {
		return nil, fmt.Errorf("master: no spans retained for trace %s: %w", traceID, core.ErrNotFound)
	}
	return merged, nil
}

// Traces exposes the master's trace store (for the HTTP endpoint and
// tests).
func (m *Master) Traces() *trace.Store { return m.traces }
