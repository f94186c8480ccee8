package master

import (
	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/trace"
	"repro/internal/xfer"
)

// This file is the master's side of pushed telemetry. Clients report
// their spans and transfer records when an operation finishes, workers
// ship their records on every heartbeat, and the master files both in
// its own trace store and transfer log. Trace and transfer queries read
// only those stores: the master never dials a worker, and what a daemon
// pushed stays queryable after the daemon is gone.

// foldTelemetry files one push: each record takes the master log's next
// sequence number, since a daemon-local Seq would corrupt the cursor
// ordering, and each span joins the trace store.
func (m *Master) foldTelemetry(spans []trace.Span, recs []xfer.Record) {
	for _, r := range recs {
		r.Seq = 0
		m.xfers.Append(r)
	}
	for _, sp := range spans {
		m.traces.Add(sp)
	}
}

// foldTransfers files a worker's heartbeat records with the span each
// traced one stands for: a worker keeps no spans of its own.
func (m *Master) foldTransfers(worker core.WorkerID, recs []xfer.Record) {
	for _, r := range recs {
		if r.TraceID != "" {
			m.traces.Add(r.Span(string(worker)))
		}
	}
	m.foldTelemetry(nil, recs)
}

// Report folds a client's telemetry. Untraced: recording spans about
// reporting would pollute the store.
func (s *Service) Report(args *rpc.ReportArgs, _ *rpc.ReportReply) (err error) {
	defer s.m.trackOpUntraced("report", args.ReqID)(&err)
	s.m.foldTelemetry(args.Spans, args.Transfers)
	return nil
}

// TransferLog exposes the master's transfer log (for the HTTP endpoint
// and tests).
func (m *Master) TransferLog() *xfer.Log { return m.xfers }
