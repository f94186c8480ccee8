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
// A log has one of two producers, chosen at construction. With no
// backlog, Append is synchronous: it takes the lock and returns the
// record's sequence number (the journal). With a backlog, Append
// never takes the lock and never blocks: the record goes onto a
// buffered channel that readers drain into the ring, and when the
// channel is full the record is dropped and counted (Dropped) — the
// audit log and the flight recorder sit on hot paths and must never
// become the contention they exist to measure.
package ringlog

import (
	"maps"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultCapacity is the ring size every daemon log uses, and what a
// capacity <= 0 selects. Records are a few hundred bytes, so a log
// covers the recent past in about a MB.
const DefaultCapacity = 4096

// Backlog is the producer channel depth of the non-blocking logs: how
// many records may sit between their producers and the ring before
// Append starts dropping. Sized above any plausible handler
// concurrency, so drops mean readers genuinely cannot keep up.
const Backlog = 1024

// Fields tells a Log where record type T keeps the three things the
// log itself reads or writes: the sequence number, the Unix-nanosecond
// timestamp, and the key Since filters on and Counts tallies by. It is
// called with the log's lock held, on records inside the ring, and
// must do nothing else.
type Fields[T any] func(r *T) (seq *uint64, at *int64, key string)

// queued is a record waiting in the backlog with its Append time.
type queued[T any] struct {
	rec T
	at  int64
}

// Log is the bounded record stream. A nil *Log is valid: it discards
// appends and reads as empty, so callers never nil-check.
type Log[T any] struct {
	fields  Fields[T]
	ch      chan queued[T] // nil: Append is synchronous
	dropped atomic.Uint64

	mu      sync.Mutex
	buf     []T    // ring storage, len == capacity
	start   int    // index of the oldest retained record
	n       int    // retained records; their seqs are evicted+1 … evicted+n
	evicted uint64 // records overwritten in the ring, oldest first
	counts  map[string]uint64
}

// New builds a log retaining up to capacity records (<= 0 selects
// DefaultCapacity). backlog > 0 makes Append non-blocking with that
// channel depth; 0 makes it synchronous.
func New[T any](capacity, backlog int, fields Fields[T]) *Log[T] {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	l := &Log[T]{fields: fields, buf: make([]T, capacity), counts: make(map[string]uint64)}
	if backlog > 0 {
		l.ch = make(chan queued[T], backlog)
	}
	return l
}

// Append records r, stamping the current time unless the producer
// already set one. On a synchronous log it returns the record's
// sequence number. On a non-blocking log it queues the record, or
// drops and counts it when the backlog is full, and returns 0: the
// sequence number is assigned when a reader drains the backlog, in
// queue order. Nil logs discard.
func (l *Log[T]) Append(r T) uint64 {
	if l == nil {
		return 0
	}
	q := queued[T]{rec: r, at: time.Now().UnixNano()}
	if l.ch == nil {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.push(q)
	}
	select {
	case l.ch <- q:
	default:
		l.dropped.Add(1)
	}
	return 0
}

// push stores q in the ring, overwriting the oldest record when full,
// and returns its sequence number. Callers hold l.mu.
func (l *Log[T]) push(q queued[T]) uint64 {
	slot := &l.buf[(l.start+l.n)%len(l.buf)]
	if l.n == len(l.buf) {
		l.start = (l.start + 1) % len(l.buf)
		l.evicted++
	} else {
		l.n++
	}
	*slot = q.rec
	seq, at, key := l.fields(slot)
	*seq = l.evicted + uint64(l.n)
	if *at == 0 {
		*at = q.at
	}
	l.counts[key]++
	return *seq
}

// drain moves the backlog into the ring (a synchronous log's nil
// channel is never ready). Callers hold l.mu.
func (l *Log[T]) drain() {
	for {
		select {
		case q := <-l.ch:
			l.push(q)
		default:
			return
		}
	}
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

	// Dropped is the lifetime total of records a non-blocking Append
	// shed because the backlog was full (always 0 on a synchronous
	// log) — load shedding, distinct from ring eviction.
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
	l.drain()
	page.Evicted, page.Dropped = l.evicted, l.dropped.Load()
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
	l.drain()
	return maps.Clone(l.counts)
}

// Dropped returns how many records a non-blocking Append has shed.
func (l *Log[T]) Dropped() uint64 {
	if l == nil {
		return 0
	}
	return l.dropped.Load()
}

// Len returns the number of retained records.
func (l *Log[T]) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.drain()
	return l.n
}

// Cap returns the ring capacity.
func (l *Log[T]) Cap() int {
	if l == nil {
		return 0
	}
	return len(l.buf)
}
