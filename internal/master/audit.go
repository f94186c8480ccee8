package master

import (
	"time"

	"repro/internal/audit"
	"repro/internal/namespace"
	"repro/internal/rpc"
	"repro/internal/trace"
)

// opAudit carries one audited namespace RPC from handler start to
// completion. It bundles the instrumentation every such handler
// needs — the op metrics and "master.<op>" span from trackOpSpan, the
// namespace.OpStats the handler threads into its namespace call, and
// the audit entry under construction — so the handlers stay one
// defer-line wide:
//
//	op := s.m.beginOp("mkdir", args.ReqHeader, args.Path, "")
//	defer op.Finish(&err)
//	return wire(s.m.ns.Mkdir(args.Path, args.Parents, args.Owner, op.Stats()))
type opAudit struct {
	m       *Master
	sp      *trace.ActiveSpan
	done    func(*error)
	st      namespace.OpStats
	entry   audit.Entry
	start   time.Time
	arrived bool
}

// beginOp starts the shared instrumentation of one audited namespace
// RPC. path and dst prefill the entry's paths (dst is "" except for
// rename). Queue wait is computed against the arrival time the RPC
// server stamped onto the header when it read the request frame; zero
// when the handler was called directly.
func (m *Master) beginOp(op string, h rpc.ReqHeader, path, dst string) *opAudit {
	sp, done := m.trackOpSpan(op, h)
	a := &opAudit{m: m, sp: sp, done: done, start: time.Now()}
	a.entry = audit.Entry{Op: op, Path: path, Dst: dst, TraceID: h.ReqID}
	if arrival := h.Arrival(); arrival > 0 {
		a.arrived = true
		if q := a.start.UnixNano() - arrival; q > 0 {
			a.entry.QueueNs = q
		}
	}
	return a
}

// Span returns the op's span, for handlers that parent sub-spans
// under it (AddBlock's placement scoring).
func (a *opAudit) Span() *trace.ActiveSpan { return a.sp }

// Stats returns the OpStats the handler passes into namespace calls;
// the namespace fills in lock-wait, apply, append, and fsync times, and
// the ID of the file the call acted on.
func (a *opAudit) Stats() *namespace.OpStats { return &a.st }

// Bytes records the op's data size (committed block bytes, located
// file bytes).
func (a *opAudit) Bytes(n int64) { a.entry.Bytes = n }

// Finish completes the op: copies the namespace phase breakdown into
// the entry, annotates the span with it, observes the queue wait,
// closes the span/metrics via trackOpSpan's done, and appends the
// entry to the audit log. Use as `defer op.Finish(&err)` on a method
// with a named error return.
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
	a.sp.AnnotateInt("queue_ns", e.QueueNs)
	a.sp.AnnotateInt("lock_wait_ns", e.LockWaitNs)
	a.sp.AnnotateInt("apply_ns", e.ApplyNs)
	if e.AppendNs > 0 {
		a.sp.AnnotateInt("append_ns", e.AppendNs)
		a.sp.AnnotateInt("fsync_ns", e.FsyncNs)
	}
	if a.arrived {
		a.m.metrics.rpcQueueWait.Observe(float64(e.QueueNs) / 1e9)
	}
	a.done(errp)
	a.m.audit.Append(a.entry)
}

// AuditLog exposes the audit log (for the HTTP handler and tests).
func (m *Master) AuditLog() *audit.Log { return m.audit }
