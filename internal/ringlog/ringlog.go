// Package ringlog is the one bounded log behind the event journal
// (internal/events), the namespace audit log (internal/audit) and the
// transfer flight recorder (internal/xfer). Those packages define a
// record type each; everything else — the ring, the sequence numbers,
// the cursor, the loss accounting — lives here, once.
//
// A Log is a fixed ring of records. Every record that enters the ring
// gets the next sequence number (strictly increasing from 1, never
// reused), which doubles as the cursor: Since(c, …) returns what came
// after c, and polling with since = Page.Next delivers every retained
// record exactly once. Memory never grows past the capacity; what the
// ring overwrites is counted (Evicted), and a cursor that fell behind
// learns how many records it lost (Missed), so a poller can always
// tell "no news" from "news lost". Per-key lifetime counts (event
// type, op) survive eviction.
//
// Append writes the ring under the log's lock and returns the record's
// sequence number: a full ring evicts its oldest record, so a log
// nobody reads still holds the newest capacity records, and no record
// is shed for want of a reader.
package ringlog

import (
	"maps"
	"sync"
	"time"
)

// DefaultCapacity is the ring size every daemon log uses, and what a
// capacity <= 0 selects. Records are a few hundred bytes, so a log
// covers the recent past in about a MB.
const DefaultCapacity = 4096

// Fields tells a Log where record type T keeps the three things the
// log itself reads or writes: the sequence number, the Unix-nanosecond
// timestamp, and the key Since filters on and Counts tallies by. It is
// called with the log's lock held, on records inside the ring, and
// must do nothing else.
type Fields[T any] func(r *T) (seq *uint64, at *int64, key string)

// Log is the bounded record stream. A nil *Log is valid: it discards
// appends and reads as empty, so callers never nil-check.
type Log[T any] struct {
	fields Fields[T]

	mu      sync.Mutex
	buf     []T    // ring storage, len == capacity
	start   int    // index of the oldest retained record
	n       int    // retained records; their seqs are evicted+1 … evicted+n
	evicted uint64 // records overwritten in the ring, oldest first
	counts  map[string]uint64
}

// New builds a log retaining up to capacity records (<= 0 selects
// DefaultCapacity).
func New[T any](capacity int, fields Fields[T]) *Log[T] {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Log[T]{fields: fields, buf: make([]T, capacity), counts: make(map[string]uint64)}
}

// Append records r, overwriting the oldest record when the ring is
// full, stamps the current time unless the producer already set one,
// and returns the record's sequence number. Nil logs discard and
// return 0.
func (l *Log[T]) Append(r T) uint64 {
	if l == nil {
		return 0
	}
	now := time.Now().UnixNano()
	l.mu.Lock()
	defer l.mu.Unlock()
	slot := &l.buf[(l.start+l.n)%len(l.buf)]
	if l.n == len(l.buf) {
		l.start = (l.start + 1) % len(l.buf)
		l.evicted++
	} else {
		l.n++
	}
	*slot = r
	seq, at, key := l.fields(slot)
	*seq = l.evicted + uint64(l.n)
	if *at == 0 {
		*at = now
	}
	l.counts[key]++
	return *seq
}

// Page is one Since result: records plus the cursor state a poller
// needs to continue without re-delivery or silent gaps.
type Page[T any] struct {
	// Entries are the matching records, oldest first; never nil.
	Entries []T `json:"entries"`

	// Next is the cursor for the following Since call: the highest
	// sequence number examined (not merely returned — records the key
	// filter skipped advance it too), or the request's since value
	// when nothing new exists.
	Next uint64 `json:"next"`

	// Missed counts records with Seq > since that the ring overwrote
	// before this call — the poller's data-loss indicator. The cursor
	// moves past the hole, so a loss is reported exactly once.
	Missed uint64 `json:"missed"`

	// Evicted is the lifetime total of records the ring overwrote.
	Evicted uint64 `json:"evicted"`

	// Dropped is always 0: Append never sheds a record. The field
	// keeps the endpoints' key set.
	Dropped uint64 `json:"dropped"`
}

// Since returns retained records with Seq > since, oldest first,
// restricted to one key unless key is "", capped at limit (<= 0 means
// no cap).
func (l *Log[T]) Since(since uint64, key string, limit int) Page[T] {
	page := Page[T]{Entries: []T{}, Next: since}
	if l == nil {
		return page
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	page.Evicted = l.evicted
	var first uint64 // ring offset of the record with Seq == since+1
	if l.evicted > since {
		page.Missed = l.evicted - since
		page.Next = l.evicted
	} else {
		first = since - l.evicted
	}
	for i := first; i < uint64(l.n); i++ {
		if limit > 0 && len(page.Entries) >= limit {
			break
		}
		r := &l.buf[(l.start+int(i))%len(l.buf)]
		page.Next = l.evicted + i + 1
		if _, _, k := l.fields(r); key == "" || k == key {
			page.Entries = append(page.Entries, *r)
		}
	}
	return page
}

// Counts returns a copy of the per-key lifetime totals of records
// that reached the ring.
func (l *Log[T]) Counts() map[string]uint64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return maps.Clone(l.counts)
}

// Dropped returns how many records Append has shed: always 0, kept
// for the callers that report it.
func (l *Log[T]) Dropped() uint64 { return 0 }

// Len returns the number of retained records.
func (l *Log[T]) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Cap returns the ring capacity.
func (l *Log[T]) Cap() int {
	if l == nil {
		return 0
	}
	return len(l.buf)
}
