// Package heat implements exponentially-decayed access statistics:
// the observability plane that tells the tier-management machinery
// which data is hot. Workers count block reads and writes on their
// data path with a single atomic update per operation (Collector),
// ship the raw deltas to the master piggybacked on heartbeats, and
// the master folds them into decayed per-block and per-file counters
// (Map) whose values halve every configurable half-life.
//
// Decay is deterministic and applied on read: every counter stores
// the instant it was last folded, and any later observation scales it
// by 2^(-elapsed/halfLife). No background ticker ever touches the
// counters, so the hot path stays lock-free and the math is exactly
// reproducible from (value, lastNs, halfLife) — which is what the
// unit tests assert against closed-form expectations.
package heat

import (
	"math"
	"sort"
	"sync"
	"time"
)

// Kind discriminates the two access directions of a counter.
type Kind int

// Access kinds.
const (
	Read Kind = iota
	Write
)

// DefaultHalfLife is the decay half-life selected when a configuration
// leaves it zero: long enough that a hot set survives between mover
// scans, short enough that yesterday's batch job does not look hot.
const DefaultHalfLife = 60 * time.Second

// Score is one direction's decayed access statistics: operations and
// bytes, both halved every half-life since their last fold.
type Score struct {
	Ops   float64
	Bytes float64
}

func (s Score) scaled(f float64) Score {
	return Score{Ops: s.Ops * f, Bytes: s.Bytes * f}
}

// Stat is one key's decayed read and write scores, valid at LastNs.
type Stat struct {
	Read  Score
	Write Score
	// LastNs is the Unix-nanosecond instant the scores are decayed to.
	LastNs int64
}

// Heat is the scalar ranking value: decayed read plus write
// operations. Bytes stay available for policies that care about
// volume rather than op frequency.
func (s Stat) Heat() float64 { return s.Read.Ops + s.Write.Ops }

// At returns the stat decayed forward to nowNs. Instants at or before
// LastNs return the stat unchanged (clock skew must never inflate a
// counter).
func (s Stat) At(nowNs int64, halfLife time.Duration) Stat {
	f := decayFactor(nowNs-s.LastNs, halfLife)
	if f >= 1 {
		return s
	}
	return Stat{Read: s.Read.scaled(f), Write: s.Write.scaled(f), LastNs: nowNs}
}

// decayFactor returns 2^(-elapsed/halfLife), clamped to 1 for
// non-positive elapsed times.
func decayFactor(elapsedNs int64, halfLife time.Duration) float64 {
	if elapsedNs <= 0 || halfLife <= 0 {
		return 1
	}
	return math.Exp2(-float64(elapsedNs) / float64(halfLife))
}

// Entry pairs a key with its decayed stat in a Snapshot.
type Entry[K comparable] struct {
	Key  K
	Stat Stat
}

// Map is a bounded collection of decayed access counters keyed by K
// (block IDs on the master's block heat map, file IDs on its file heat
// map). All methods take explicit nanosecond timestamps so decay is
// deterministic under test. Map is safe for concurrent use; it is
// NOT meant for per-I/O hot paths — workers use Collector there and
// fold into a Map only at heartbeat granularity.
type Map[K comparable] struct {
	halfLife time.Duration
	capacity int

	mu    sync.Mutex
	stats map[K]*Stat
}

// DefaultMapCapacity bounds a Map when the configuration leaves the
// capacity zero. When full, the coldest entries are evicted first, so
// capacity pressure degrades the cold tail, never the hot set.
const DefaultMapCapacity = 65536

// NewMap builds a Map. halfLife <= 0 selects DefaultHalfLife;
// capacity <= 0 selects DefaultMapCapacity.
func NewMap[K comparable](halfLife time.Duration, capacity int) *Map[K] {
	if halfLife <= 0 {
		halfLife = DefaultHalfLife
	}
	if capacity <= 0 {
		capacity = DefaultMapCapacity
	}
	return &Map[K]{
		halfLife: halfLife,
		capacity: capacity,
		stats:    make(map[K]*Stat),
	}
}

// HalfLife returns the configured decay half-life.
func (m *Map[K]) HalfLife() time.Duration { return m.halfLife }

// Add folds ops operations moving bytes bytes of kind k into key's
// counter at instant nowNs, decaying the previous value first.
func (m *Map[K]) Add(key K, kind Kind, ops, bytes int64, nowNs int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.stats[key]
	if !ok {
		if len(m.stats) >= m.capacity {
			m.evictLocked(nowNs)
		}
		st = &Stat{LastNs: nowNs}
		m.stats[key] = st
	}
	*st = st.At(nowNs, m.halfLife)
	add := Score{Ops: float64(ops), Bytes: float64(bytes)}
	switch kind {
	case Read:
		st.Read.Ops += add.Ops
		st.Read.Bytes += add.Bytes
	default:
		st.Write.Ops += add.Ops
		st.Write.Bytes += add.Bytes
	}
}

// evictLocked drops the coldest eighth of the map (at least one
// entry) to make room, ranking by heat decayed to nowNs.
func (m *Map[K]) evictLocked(nowNs int64) {
	type cold struct {
		key  K
		heat float64
	}
	all := make([]cold, 0, len(m.stats))
	for k, st := range m.stats {
		all = append(all, cold{k, st.At(nowNs, m.halfLife).Heat()})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].heat < all[j].heat })
	n := len(all) / 8
	if n < 1 {
		n = 1
	}
	for _, c := range all[:n] {
		delete(m.stats, c.key)
	}
}

// Get returns key's stat decayed to nowNs; ok is false for untracked
// keys.
func (m *Map[K]) Get(key K, nowNs int64) (Stat, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.stats[key]
	if !ok {
		return Stat{}, false
	}
	return st.At(nowNs, m.halfLife), true
}

// Remove forgets one key (e.g. a deleted block or file).
func (m *Map[K]) Remove(key K) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.stats, key)
}

// Len returns the number of tracked keys.
func (m *Map[K]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.stats)
}

// Snapshot returns every entry decayed to nowNs, hottest first.
func (m *Map[K]) Snapshot(nowNs int64) []Entry[K] {
	m.mu.Lock()
	out := make([]Entry[K], 0, len(m.stats))
	for k, st := range m.stats {
		out = append(out, Entry[K]{Key: k, Stat: st.At(nowNs, m.halfLife)})
	}
	m.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Stat.Heat() > out[j].Stat.Heat() })
	return out
}
