// Package events implements the cluster event journal, the third
// observability plane next to metrics (internal/metrics) and traces
// (internal/trace). Where metrics answer "what is the cluster doing
// right now" and a trace answers "what happened inside one request",
// the journal answers "what has happened to the cluster over time":
// worker lifecycle changes, block state transitions, replication
// actions, and placement decisions, each stamped with a monotonic
// sequence number so consumers can cursor through them exactly once.
//
// The journal is a synchronous ringlog.Log keyed by event type: the
// bounded ring, the cursor and the eviction accounting are described
// there. This package adds the Event record and the Publish helpers.
package events

import "repro/internal/ringlog"

// Severity grades an event. The journal does not interpret it; it
// exists so consumers can filter signal (warn/error) from routine
// lifecycle noise (info).
type Severity string

// Severity levels.
const (
	Info  Severity = "info"
	Warn  Severity = "warn"
	Error Severity = "error"
)

// Event is one journaled occurrence. Attrs carry the event-specific
// details (worker ID, block ID, tier, scores…) as strings so the
// package stays dependency-free and events serialise uniformly to
// JSON and gob.
type Event struct {
	// Seq is the journal-assigned sequence number: strictly
	// monotonically increasing, starting at 1, never reused. It
	// doubles as the cursor for incremental consumption.
	Seq uint64 `json:"seq"`

	// Time is the publication time in Unix nanoseconds.
	Time int64 `json:"time_ns"`

	// Type names the event kind (e.g. "worker_register",
	// "block_committed", "placement", "slow_op").
	Type string `json:"type"`

	// Severity grades the event.
	Severity Severity `json:"severity"`

	// Message is the human-readable one-liner.
	Message string `json:"message,omitempty"`

	// TraceID links the event to a distributed trace (the request ID)
	// when the event was caused by one identifiable request.
	TraceID string `json:"trace_id,omitempty"`

	// Attrs carry event-specific key/value details.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Journal is the event log. A nil *Journal is valid and discards
// everything, so callers never need nil checks on the publish path.
type Journal ringlog.Log[Event]

// Page is one Since result.
type Page = ringlog.Page[Event]

// NewJournal builds a journal retaining up to capacity events (<= 0
// selects ringlog.DefaultCapacity).
func NewJournal(capacity int) *Journal {
	return (*Journal)(ringlog.New(capacity, 0, func(e *Event) (*uint64, *int64, string) {
		return &e.Seq, &e.Time, e.Type
	}))
}

// Log returns the journal as the log it is, for Since, Counts and the
// shared HTTP handler.
func (j *Journal) Log() *ringlog.Log[Event] { return (*ringlog.Log[Event])(j) }

// Publish appends an event and returns its sequence number. kv are
// alternating attribute key/value pairs; a trailing odd key is
// ignored. Nil journals return 0.
func (j *Journal) Publish(sev Severity, typ, msg string, kv ...string) uint64 {
	return j.PublishTraced(sev, typ, "", msg, kv...)
}

// PublishTraced is Publish with a trace ID linking the event to a
// request's span timeline.
func (j *Journal) PublishTraced(sev Severity, typ, traceID, msg string, kv ...string) uint64 {
	if j == nil {
		return 0
	}
	var attrs map[string]string
	if len(kv) >= 2 {
		attrs = make(map[string]string, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			attrs[kv[i]] = kv[i+1]
		}
	}
	return j.Log().Append(Event{
		Type:     typ,
		Severity: sev,
		Message:  msg,
		TraceID:  traceID,
		Attrs:    attrs,
	})
}

// Since returns retained events with Seq > since, oldest first,
// optionally filtered by type, capped at limit (<= 0 means no cap).
func (j *Journal) Since(since uint64, typ string, limit int) Page {
	return j.Log().Since(since, typ, limit)
}
