package client

import (
	"strings"

	"repro/internal/rpc"
	"repro/internal/trace"
	"repro/internal/xfer"
)

// callTraced invokes a master RPC as a child span of parent. The span
// ID travels in the request header so the master's handler span links
// under it, and the client-observed latency (queueing, network, and
// server time together) is recorded as "client.rpc.<Method>".
func (fs *FileSystem) callTraced(parent *trace.ActiveSpan, reqID, method string, args, reply any) error {
	sp := fs.tracer.Start(reqID, parent.ID(), "client.rpc."+strings.TrimPrefix(method, "Master."))
	if t, ok := args.(rpc.Traced); ok {
		t.SetParentSpan(sp.ID())
	}
	err := fs.callReq(reqID, method, args, reply)
	sp.SetError(err)
	sp.End()
	return err
}

// TransferLog exposes the client's transfer flight recorder (for
// octopus-bench and tests).
func (fs *FileSystem) TransferLog() *xfer.Log { return fs.xfers }

// report ships, in one Master.Report, the client's spans of one
// finished trace and its flight-recorder records not yet shipped, so
// both survive the client process and join the cluster view.
// Best-effort: a failure only costs observability, never the
// operation; the record cursor then stays put and the next report
// retries. Spans still open when this runs (e.g. a readahead open
// cancelled at Close) miss the shipment but stay in the local store.
func (fs *FileSystem) report(traceID string) {
	if fs == nil || fs.traces == nil {
		return // bare handles (tests) trace nothing
	}
	fs.shipMu.Lock()
	defer fs.shipMu.Unlock()
	page := fs.xfers.Since(fs.shipCursor, "", 0)
	args := &rpc.ReportArgs{Telemetry: rpc.Telemetry{Spans: fs.traces.Get(traceID), Transfers: page.Entries}}
	if len(args.Spans) == 0 && len(args.Transfers) == 0 {
		return
	}
	if fs.call("Master.Report", args, &rpc.ReportReply{}) == nil {
		fs.shipCursor = page.Next
	}
}
