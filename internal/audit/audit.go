// Package audit implements the master's namespace audit log: one
// structured entry per namespace RPC (mutations and reads alike),
// carrying the op, path(s), result, the client's request/trace ID,
// byte sizes, and a per-phase latency breakdown — queue-wait in the
// RPC server, lock-wait on the namespace mutex, in-memory apply,
// edit-log append, and fsync. Where a trace answers "what happened
// inside one request" and the event journal records cluster state
// transitions, the audit log answers "who did what to the namespace,
// and where did the time go" for every request.
//
// The log is a non-blocking ringlog.Log keyed by op: retained entries
// live in a bounded ring, and the RPC hot path never takes the
// consumer lock — when the producer backlog is full the entry is
// dropped and counted rather than slowing the master down. "Droppable
// under pressure" is a feature: the audit log must never become the
// contention it exists to measure. This package adds the Entry record.
package audit

import "repro/internal/ringlog"

// Entry is one audited namespace operation. All latency fields are
// nanoseconds; phases that did not occur (fsync when the edit log is
// not in sync mode, append on a read op) are zero.
type Entry struct {
	// Seq is the log-assigned sequence number: strictly monotonically
	// increasing, starting at 1. It is the cursor for Since.
	Seq uint64 `json:"seq"`

	// Time is the operation completion time in Unix nanoseconds.
	Time int64 `json:"time_ns"`

	// Op names the RPC ("create", "mkdir", "rename", "list", …).
	Op string `json:"op"`

	// Path is the primary path operated on.
	Path string `json:"path,omitempty"`

	// Dst is the destination path for two-path ops (rename).
	Dst string `json:"dst,omitempty"`

	// TraceID is the client's request ID, joining the entry to the
	// span timeline served by /debug/traces and `octopus-cli trace`.
	TraceID string `json:"trace_id,omitempty"`

	// Result is "ok" on success, the error text otherwise.
	Result string `json:"result"`

	// Bytes is the op's data size where one applies (committed block
	// bytes, located file bytes).
	Bytes int64 `json:"bytes,omitempty"`

	// Phase breakdown. QueueNs is the wait between the RPC server
	// reading the request frame and the handler starting; LockWaitNs
	// the wait for the namespace mutex; ApplyNs the in-memory tree
	// mutation (or read body); AppendNs the edit-log append;
	// FsyncNs the edit-log file sync. TotalNs is handler start to
	// completion and can exceed the sum (placement, block-map work).
	QueueNs    int64 `json:"queue_ns"`
	LockWaitNs int64 `json:"lock_wait_ns"`
	ApplyNs    int64 `json:"apply_ns"`
	AppendNs   int64 `json:"append_ns,omitempty"`
	FsyncNs    int64 `json:"fsync_ns,omitempty"`
	TotalNs    int64 `json:"total_ns"`
}

// Log is the bounded audit stream. A nil *Log is valid and discards
// everything, so callers never nil-check the append path.
type Log = ringlog.Log[Entry]

// Page is one Since result.
type Page = ringlog.Page[Entry]

// New builds a log retaining up to capacity entries (<= 0 selects
// ringlog.DefaultCapacity). Append stamps Time with the completion
// time; Seq is assigned when the backlog is drained into the ring.
func New(capacity int) *Log {
	return ringlog.New(capacity, ringlog.Backlog, func(e *Entry) (*uint64, *int64, string) {
		return &e.Seq, &e.Time, e.Op
	})
}
