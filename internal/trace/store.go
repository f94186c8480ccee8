package trace

import (
	"slices"
	"sort"
	"sync"
	"time"
)

const (
	// DefaultCapacity bounds the number of traces a Store retains.
	DefaultCapacity = 512
	// DefaultSample is the fraction of non-slow traces retained when
	// the configured sample rate is zero.
	DefaultSample = 0.1
	// maxSpansPerTrace caps one trace's span list so a pathological
	// request cannot consume the store by itself; further spans are
	// counted in Summary.Dropped.
	maxSpansPerTrace = 512
)

// Store is a bounded in-memory trace store. Retention follows the
// slow-op semantics of metrics.SlowLogger: traces containing a span
// at or above the slow threshold are always kept (a negative threshold
// marks none slow), plus
// a deterministically sampled fraction of the rest. Sampling hashes
// the trace ID so every daemon in the cluster keeps or drops the
// same traces, which is what makes cross-daemon assembly work at
// sample rates below 1.0.
//
// Eviction beyond capacity removes the oldest non-slow trace first,
// falling back to the oldest overall, so slow traces survive churn
// while sampled-in fast traces age out.
type Store struct {
	mu       sync.Mutex
	capacity int
	slow     time.Duration
	sample   float64
	traces   map[string]*traceEntry
	order    []string // insertion order, oldest first
	fast     int      // retained traces that are not slow
}

type traceEntry struct {
	spans   []Span
	slow    bool
	dropped int
}

// NewStore builds a Store keeping up to capacity traces (0 means
// DefaultCapacity). slowThreshold shares metrics.SlowLogger's
// semantics; sample is the keep-fraction for non-slow traces (0
// means DefaultSample, negative keeps only slow traces).
func NewStore(capacity int, slowThreshold time.Duration, sample float64) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if sample == 0 {
		sample = DefaultSample
	}
	if sample < 0 {
		sample = 0
	}
	if sample > 1 {
		sample = 1
	}
	return &Store{
		capacity: capacity,
		slow:     slowThreshold,
		sample:   sample,
		traces:   make(map[string]*traceEntry),
	}
}

// isSlow mirrors metrics.SlowLogger: a negative threshold marks
// nothing slow, any other is compared with the span's duration.
func (s *Store) isSlow(d time.Duration) bool {
	return s.slow >= 0 && d >= s.slow
}

// Sampled reports whether traceID falls into the store's
// deterministic sample. All stores configured with the same rate
// agree on the answer regardless of daemon.
func (s *Store) Sampled(traceID string) bool {
	if s.sample >= 1 {
		return true
	}
	if s.sample <= 0 {
		return false
	}
	// FNV-1a, inline so the answer costs no allocation.
	h := uint64(14695981039346656037)
	for i := 0; i < len(traceID); i++ {
		h ^= uint64(traceID[i])
		h *= 1099511628211
	}
	return h%10000 < uint64(s.sample*10000)
}

// Keeps reports whether Add would keep a span of traceID lasting d:
// the span is slow, the trace is sampled, or the store already holds
// the trace. A caller that builds its span only when this holds pays
// nothing for the spans the store would drop.
func (s *Store) Keeps(traceID string, d time.Duration) bool {
	if s == nil || traceID == "" {
		return false
	}
	if s.isSlow(d) || s.Sampled(traceID) {
		return true
	}
	s.mu.Lock()
	_, ok := s.traces[traceID]
	s.mu.Unlock()
	return ok
}

// Add records a finished span. Nil stores discard silently.
func (s *Store) Add(sp Span) {
	if s == nil || sp.TraceID == "" {
		return
	}
	slow := s.isSlow(sp.Duration())
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.traces[sp.TraceID]
	if !ok {
		// Admit a new trace only if this span is slow or the trace is
		// sampled in; later slow spans of a sampled-out trace still
		// admit it (tail sampling — its early fast spans are lost).
		if !slow && !s.Sampled(sp.TraceID) {
			return
		}
		e = &traceEntry{slow: slow}
		s.traces[sp.TraceID] = e
		s.order = append(s.order, sp.TraceID)
		if !slow {
			s.fast++
		}
	} else if slow && !e.slow {
		e.slow = true
		s.fast--
	}
	if len(e.spans) >= maxSpansPerTrace {
		e.dropped++
		return
	}
	e.spans = append(e.spans, sp)
	s.evictLocked()
}

// evictLocked enforces capacity, preferring the oldest non-slow
// trace; if every trace is slow the oldest overall goes, without a
// search. The victim's elders move up one slot and the head is dropped,
// so the cost is the victim's position, nothing for the oldest.
func (s *Store) evictLocked() {
	for len(s.order) > s.capacity {
		victim := 0
		if s.fast > 0 {
			victim = slices.IndexFunc(s.order, func(id string) bool { return !s.traces[id].slow })
			s.fast--
		}
		delete(s.traces, s.order[victim])
		copy(s.order[1:], s.order[:victim])
		s.order = s.order[1:]
	}
}

// Get returns a copy of the trace's spans sorted by start time, or
// nil if the trace is not retained.
func (s *Store) Get(traceID string) []Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	e, ok := s.traces[traceID]
	if !ok {
		s.mu.Unlock()
		return nil
	}
	spans := make([]Span, len(e.spans))
	copy(spans, e.spans)
	s.mu.Unlock()
	SortSpans(spans)
	return spans
}

// Summary describes one retained trace for the /debug/traces list.
type Summary struct {
	TraceID  string `json:"trace_id"`
	Root     string `json:"root"`
	Start    int64  `json:"start"`
	Duration int64  `json:"duration_ns"`
	Spans    int    `json:"spans"`
	Slow     bool   `json:"slow"`
	Dropped  int    `json:"dropped,omitempty"`
}

// List summarises retained traces, newest first.
func (s *Store) List() []Summary {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Summary, 0, len(s.order))
	for i := len(s.order) - 1; i >= 0; i-- {
		id := s.order[i]
		e := s.traces[id]
		sum := Summary{TraceID: id, Spans: len(e.spans), Slow: e.slow, Dropped: e.dropped}
		var minStart, maxEnd int64
		for _, sp := range e.spans {
			if minStart == 0 || sp.Start < minStart {
				minStart = sp.Start
				sum.Root = sp.Op
			}
			if sp.End > maxEnd {
				maxEnd = sp.End
			}
			// Prefer a true root's op name when one is present.
			if sp.ParentID == "" && sum.Root != sp.Op && sp.Start == minStart {
				sum.Root = sp.Op
			}
		}
		sum.Start = minStart
		if maxEnd > minStart {
			sum.Duration = maxEnd - minStart
		}
		out = append(out, sum)
	}
	return out
}

// SortSpans orders spans by start time, then span ID for stability.
func SortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].SpanID < spans[j].SpanID
	})
}

// Merge combines span sets into one sorted timeline, dropping
// duplicate span IDs (a push the transport retried can deliver a span
// twice).
func Merge(sets ...[]Span) []Span {
	seen := make(map[string]bool)
	var out []Span
	for _, set := range sets {
		for _, sp := range set {
			if sp.SpanID != "" && seen[sp.SpanID] {
				continue
			}
			seen[sp.SpanID] = true
			out = append(out, sp)
		}
	}
	SortSpans(out)
	return out
}
