package master

import (
	"repro/internal/rpc"
	"repro/internal/xfer"
)

// This file is the master's side of pushed telemetry. Clients report
// their spans and transfer records when an operation finishes, workers
// ship theirs on every heartbeat, and the master files both in its own
// trace store and transfer log. Trace and transfer queries read only
// those stores: the master never dials a worker, and what a daemon
// pushed stays queryable after the daemon is gone.

// foldTelemetry files one push: each record takes the master log's next
// sequence number, since a daemon-local Seq would corrupt the cursor
// ordering, and each span joins the trace store.
func (m *Master) foldTelemetry(t rpc.Telemetry) {
	for _, r := range t.Transfers {
		r.Seq = 0
		m.xfers.Append(r)
	}
	for _, sp := range t.Spans {
		m.traces.Add(sp)
	}
}

// Report folds a client's telemetry. Untraced: recording spans about
// reporting would pollute the store.
func (s *Service) Report(args *rpc.ReportArgs, _ *rpc.ReportReply) (err error) {
	defer s.m.trackOpUntraced("report", args.ReqID)(&err)
	s.m.foldTelemetry(args.Telemetry)
	return nil
}

// TransferLog exposes the master's transfer log (for the HTTP endpoint
// and tests).
func (m *Master) TransferLog() *xfer.Log { return m.xfers }
