package master

import (
	"strconv"
	"time"

	"repro/internal/audit"
	"repro/internal/namespace"
	"repro/internal/rpc"
	"repro/internal/trace"
)

// opAudit carries one audited namespace RPC from handler start to
// completion. It bundles the instrumentation every such handler
// needs — the op metrics, the namespace.OpStats the handler threads
// into its namespace call, and the audit entry under construction, from
// which Finish builds the "master.<op>" span — so the handlers stay one
// defer-line wide:
//
//	op := s.m.beginOp("mkdir", args.ReqHeader, args.Path, "")
//	defer op.Finish(&err)
//	return wire(s.m.ns.Mkdir(args.Path, args.Parents, args.Owner, op.Stats()))
type opAudit struct {
	m       *Master
	st      namespace.OpStats
	entry   audit.Entry
	start   time.Time
	arrived bool
	parent  string // the caller's span ID
	spanID  string // the op's span ID, minted on first use
}

// beginOp starts the shared instrumentation of one audited namespace
// RPC. path and dst prefill the entry's paths (dst is "" except for
// rename). Queue wait is computed against the arrival time the RPC
// server stamped onto the header when it read the request frame; zero
// when the handler was called directly.
func (m *Master) beginOp(op string, h rpc.ReqHeader, path, dst string) opAudit {
	m.metrics.ops.With(op).Inc()
	a := opAudit{m: m, start: time.Now(), parent: h.SpanID}
	a.entry = audit.Entry{Op: op, Path: path, Dst: dst, TraceID: h.ReqID}
	if arrival := h.Arrival(); arrival > 0 {
		a.arrived = true
		if q := a.start.UnixNano() - arrival; q > 0 {
			a.entry.QueueNs = q
		}
	}
	return a
}

// SpanID returns the op's span ID, for handlers that parent sub-spans
// under it (AddBlock's placement scoring).
func (a *opAudit) SpanID() string {
	if a.spanID == "" {
		a.spanID = trace.NewSpanID()
	}
	return a.spanID
}

// Stats returns the OpStats the handler passes into namespace calls;
// the namespace fills in lock-wait, apply, append, and fsync times, and
// the ID of the file the call acted on.
func (a *opAudit) Stats() *namespace.OpStats { return &a.st }

// Bytes records the op's data size (committed block bytes, located
// file bytes).
func (a *opAudit) Bytes(n int64) { a.entry.Bytes = n }

// Finish completes the op: copies the namespace phase breakdown into
// the entry, files the op's span when the trace store would keep it,
// observes the queue wait, closes the op's metrics (endOp), and
// appends the entry to the audit log. Use as
// `defer op.Finish(&err)` on a method with a named error return.
func (a *opAudit) Finish(errp *error) {
	e := &a.entry
	e.LockWaitNs = a.st.LockWaitNs
	e.ApplyNs = a.st.ApplyNs
	e.AppendNs = a.st.AppendNs
	e.FsyncNs = a.st.FsyncNs
	e.TotalNs = time.Since(a.start).Nanoseconds()
	// Result captures the raw error before done stamps the request-ID
	// marker onto the wire form; the entry has its own TraceID field.
	e.Result = "ok"
	if *errp != nil {
		e.Result = (*errp).Error()
	}
	if a.m.traces.Keeps(e.TraceID, time.Duration(e.TotalNs)) {
		a.m.traces.Add(a.span(*errp))
	}
	if a.arrived {
		a.m.metrics.rpcQueueWait.Observe(float64(e.QueueNs) / 1e9)
	}
	a.m.endOp(e.Op, e.TraceID, time.Duration(e.TotalNs), errp)
	a.m.audit.Append(a.entry)
}

// span builds the op's "master.<op>" span from the finished entry; err
// is the handler's error before the request-ID stamp.
func (a *opAudit) span(err error) trace.Span {
	e := &a.entry
	sp := trace.Span{
		TraceID:  e.TraceID,
		SpanID:   a.SpanID(),
		ParentID: a.parent,
		Service:  "master",
		Op:       "master." + e.Op,
		Start:    a.start.UnixNano(),
		End:      a.start.UnixNano() + e.TotalNs,
		Attrs: map[string]string{
			"queue_ns":     strconv.FormatInt(e.QueueNs, 10),
			"lock_wait_ns": strconv.FormatInt(e.LockWaitNs, 10),
			"apply_ns":     strconv.FormatInt(e.ApplyNs, 10),
		},
	}
	if err != nil {
		sp.Error = err.Error()
	}
	if e.AppendNs > 0 {
		sp.Attrs["append_ns"] = strconv.FormatInt(e.AppendNs, 10)
		sp.Attrs["fsync_ns"] = strconv.FormatInt(e.FsyncNs, 10)
	}
	return sp
}

// AuditLog exposes the audit log (for the HTTP handler and tests).
func (m *Master) AuditLog() *audit.Log { return m.audit }
