package client

import (
	"strings"
	"time"

	"repro/internal/rpc"
	"repro/internal/trace"
	"repro/internal/xfer"
)

// callTraced invokes a master RPC as a child span of parent: a batch
// of one.
func (fs *FileSystem) callTraced(parent *trace.ActiveSpan, reqID, method string, args, reply any) error {
	calls := [1]rpc.Call{{Method: method, Args: args, Reply: reply}}
	fs.callsTraced(parent, reqID, calls[:])
	return calls[0].Err
}

// callsTraced invokes master RPCs as one pipelined batch, each call a
// child span of parent. A call's span ID travels in its own request
// header so the master's handler span links under it, and the
// client-observed latency (queueing, network, and server time
// together, up to the call's own reply) is recorded as
// "client.rpc.<Method>".
func (fs *FileSystem) callsTraced(parent *trace.ActiveSpan, reqID string, calls []rpc.Call) {
	var buf [2]*trace.ActiveSpan // Create's batch, without an allocation
	spans := buf[:0]
	for _, call := range calls {
		sp := fs.tracer.Start(reqID, parent.ID(), "client.rpc."+strings.TrimPrefix(call.Method, "Master."))
		if t, ok := call.Args.(rpc.Traced); ok {
			t.SetParentSpan(sp.ID())
		}
		spans = append(spans, sp)
	}
	fs.callsReq(reqID, calls)
	for i, sp := range spans {
		sp.SetError(calls[i].Err)
		sp.EndAt(calls[i].Done)
	}
}

// TransferLog exposes the client's transfer flight recorder (for
// octopus-bench and tests).
func (fs *FileSystem) TransferLog() *xfer.Log { return fs.xfers }

// The client's telemetry reaches the master in batches: an operation's
// end only queues its trace, and one Master.Report carries the spans of
// every queued trace and every transfer record not yet shipped. Both
// limits sit well below the stores' capacities (traceCapacity,
// recordCapacity), so nothing is evicted before it ships.
const (
	traceCapacity  = 256  // traces the client's span store keeps
	recordCapacity = 1024 // records the client's flight recorder keeps

	shipTraces  = 64          // queued traces that trigger a shipment
	shipRecords = 512         // unshipped records that trigger a shipment
	shipDelay   = time.Second // the longest a queued trace waits
)

// report queues one finished trace for the next shipment, which it
// starts itself once shipTraces traces or shipRecords records wait.
// Otherwise the ship timer, the next observability read (getJSON) or
// Close sends it. Spans still open when the trace ships (e.g. a
// readahead open cancelled at Close) miss the shipment but stay in the
// local store.
func (fs *FileSystem) report(traceID string) {
	if fs == nil || fs.traces == nil {
		return // bare handles (tests) trace nothing
	}
	fs.telMu.Lock()
	fs.pending = append(fs.pending, traceID)
	full := len(fs.pending) >= shipTraces
	fs.armLocked()
	fs.telMu.Unlock()
	cursor := fs.shipCursor.Load() // before Last, so the difference cannot wrap
	if full || fs.xfers.Last()-cursor >= shipRecords {
		fs.ship()
	}
}

// armLocked starts the ship timer when traces wait and it is not
// already running; after Close it never starts again.
func (fs *FileSystem) armLocked() {
	if fs.armed || fs.closed || len(fs.pending) == 0 {
		return
	}
	fs.armed = true
	if fs.shipTimer == nil {
		fs.shipTimer = time.AfterFunc(shipDelay, fs.shipOnTimer)
	} else {
		fs.shipTimer.Reset(shipDelay)
	}
}

// shipOnTimer is the ship timer's callback, so an idle client's last
// operations still reach the master.
func (fs *FileSystem) shipOnTimer() {
	fs.telMu.Lock()
	fs.armed = false
	fs.telMu.Unlock()
	fs.ship()
}

// ship sends, in one Master.Report, the spans of every queued trace and
// the flight-recorder records past the shipping cursor, so both
// survive the client process and join the cluster view. When it
// returns, everything queued before the call is on the master or, if
// the master could not be reached, queued again. Best-effort: a failed
// Report costs only observability, never an operation; the cursor and
// the queued traces stay for the next try (at most traceCapacity
// traces, whose spans the store still holds).
func (fs *FileSystem) ship() {
	if fs == nil || fs.traces == nil {
		return
	}
	fs.shipMu.Lock()
	defer fs.shipMu.Unlock()
	fs.telMu.Lock()
	ids := fs.pending
	fs.pending = nil
	fs.telMu.Unlock()

	var spans []trace.Span
	for _, id := range ids {
		spans = append(spans, fs.traces.Get(id)...)
	}
	page := fs.xfers.Since(fs.shipCursor.Load(), "", 0)
	if len(spans) == 0 && len(page.Entries) == 0 {
		return
	}
	args := &rpc.ReportArgs{Spans: spans, Transfers: page.Entries}
	if fs.call("Master.Report", args, &rpc.ReportReply{}) == nil {
		fs.shipCursor.Store(page.Next)
		return
	}
	fs.telMu.Lock()
	fs.pending = append(ids, fs.pending...)
	if over := len(fs.pending) - traceCapacity; over > 0 {
		fs.pending = fs.pending[over:]
	}
	fs.armLocked()
	fs.telMu.Unlock()
}
