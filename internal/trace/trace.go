// Package trace implements lightweight distributed tracing for
// OctopusFS. A trace is identified by the 16-hex request ID that
// already flows through every RPC and data-transfer header. The
// client and the master record spans into a bounded in-memory Store;
// a worker records transfers instead, and the master derives each
// worker span from its record. Clients push their spans to the
// master, whose store then holds the cross-daemon timeline.
//
// The package depends only on the standard library so every layer
// (rpc, xfer, client, master, worker) can import it without cycles.
package trace

import (
	"math/rand/v2"
	"strconv"
	"sync"
	"time"
)

// Span is one timed operation within a trace. Start and End are
// UnixNano timestamps so spans serialise compactly on the wire and in
// JSON and merge across daemons without clock-format ambiguity.
type Span struct {
	TraceID  string            `json:"trace_id"`
	SpanID   string            `json:"span_id"`
	ParentID string            `json:"parent_id,omitempty"`
	Service  string            `json:"service"`
	Op       string            `json:"op"`
	Start    int64             `json:"start"`
	End      int64             `json:"end"`
	Error    string            `json:"error,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// Duration returns the span's elapsed time.
func (s Span) Duration() time.Duration {
	return time.Duration(s.End - s.Start)
}

// NewSpanID returns a random 16-hex identifier, for spans and request
// IDs alike. It draws from math/rand/v2's per-thread generator: an ID
// must be unique, not unguessable, and a system call per span would
// cost more than recording the span.
func NewSpanID() string {
	const digits = "0123456789abcdef"
	var b [16]byte
	x := rand.Uint64()
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = digits[x&15]
		x >>= 4
	}
	return string(b[:])
}

// Tracer creates spans on behalf of one daemon ("client", "master",
// "worker") and records them into its Store. A nil Tracer is valid
// and produces nil (no-op) spans.
type Tracer struct {
	service string
	store   *Store
}

// NewTracer returns a Tracer recording spans for service into store.
func NewTracer(service string, store *Store) *Tracer {
	return &Tracer{service: service, store: store}
}

// Start begins a span. It returns nil — a valid no-op span — when the
// tracer is nil, has no store, or traceID is empty, so call sites
// never need to guard.
func (t *Tracer) Start(traceID, parentID, op string) *ActiveSpan {
	if t == nil || t.store == nil || traceID == "" {
		return nil
	}
	return &ActiveSpan{
		store: t.store,
		span: Span{
			TraceID:  traceID,
			SpanID:   NewSpanID(),
			ParentID: parentID,
			Service:  t.service,
			Op:       op,
			Start:    time.Now().UnixNano(),
		},
	}
}

// ActiveSpan is an in-progress span. All methods are safe on a nil
// receiver and safe for concurrent use; End is idempotent and records
// the finished span into the store.
type ActiveSpan struct {
	mu    sync.Mutex
	store *Store
	span  Span
	done  bool
}

// ID returns the span's ID, or "" for a nil span.
func (a *ActiveSpan) ID() string {
	if a == nil {
		return ""
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.span.SpanID
}

// Annotate attaches a key/value annotation and returns the span for
// chaining.
func (a *ActiveSpan) Annotate(key, value string) *ActiveSpan {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.span.Attrs == nil {
		a.span.Attrs = make(map[string]string, 4)
	}
	a.span.Attrs[key] = value
	return a
}

// AnnotateInt attaches an integer annotation.
func (a *ActiveSpan) AnnotateInt(key string, value int64) *ActiveSpan {
	return a.Annotate(key, strconv.FormatInt(value, 10))
}

// SetError records the span's failure status.
func (a *ActiveSpan) SetError(err error) {
	if a == nil || err == nil {
		return
	}
	a.mu.Lock()
	a.span.Error = err.Error()
	a.mu.Unlock()
}

// End finishes the span now and records it into the store. Only the
// first End or EndAt has effect.
func (a *ActiveSpan) End() {
	if a != nil {
		a.EndAt(time.Now())
	}
}

// EndAt finishes the span at end, for work whose end was observed
// before the span could be closed (one call of a pipelined batch).
func (a *ActiveSpan) EndAt(end time.Time) {
	if a == nil {
		return
	}
	a.mu.Lock()
	if a.done {
		a.mu.Unlock()
		return
	}
	a.done = true
	a.span.End = end.UnixNano()
	sp := a.span
	store := a.store
	a.mu.Unlock()
	if store != nil {
		store.Add(sp)
	}
}
