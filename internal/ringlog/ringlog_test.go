package ringlog_test

import (
	"strconv"
	"sync"
	"testing"

	"repro/internal/audit"
	"repro/internal/events"
	"repro/internal/ringlog"
	"repro/internal/xfer"
)

// kind is one record type the suite runs against: how its package
// builds a log of it, how to make a record carrying a key and a number,
// and how to read the log-managed fields back.
type kind[T any] struct {
	name string
	new  func(capacity int) *ringlog.Log[T]
	rec  func(key string, n int, at int64) T
	read func(T) (seq uint64, at int64, key string, n int)
}

var (
	eventKind = kind[events.Event]{
		name: "events",
		new:  func(c int) *ringlog.Log[events.Event] { return events.NewJournal(c).Log() },
		rec: func(key string, n int, at int64) events.Event {
			return events.Event{Type: key, Message: strconv.Itoa(n), Time: at}
		},
		read: func(e events.Event) (uint64, int64, string, int) {
			n, _ := strconv.Atoi(e.Message)
			return e.Seq, e.Time, e.Type, n
		},
	}
	auditKind = kind[audit.Entry]{
		name: "audit",
		new:  audit.New,
		rec: func(key string, n int, at int64) audit.Entry {
			return audit.Entry{Op: key, Bytes: int64(n), Time: at, Result: "ok"}
		},
		read: func(e audit.Entry) (uint64, int64, string, int) { return e.Seq, e.Time, e.Op, int(e.Bytes) },
	}
	xferKind = kind[xfer.Record]{
		name: "xfer",
		new:  xfer.New,
		rec: func(key string, n int, at int64) xfer.Record {
			return xfer.Record{Op: key, Block: uint64(n), Time: at, Result: "ok"}
		},
		read: func(r xfer.Record) (uint64, int64, string, int) { return r.Seq, r.Time, r.Op, int(r.Block) },
	}
)

// TestLog runs every row of the suite against all three record types,
// each log built by its own package's constructor.
func TestLog(t *testing.T) {
	runSuite(t, eventKind)
	runSuite(t, auditKind)
	runSuite(t, xferKind)
}

func runSuite[T any](t *testing.T, k kind[T]) {
	appendN := func(l *ringlog.Log[T], n int, key string) {
		for i := 0; i < n; i++ {
			l.Append(k.rec(key, i, 0))
		}
	}
	seqs := func(page ringlog.Page[T]) []uint64 {
		out := make([]uint64, len(page.Entries))
		for i, e := range page.Entries {
			out[i], _, _, _ = k.read(e)
		}
		return out
	}
	rows := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"cursor resumes without re-delivery", func(t *testing.T) {
			l := k.new(16)
			appendN(l, 5, "a")
			page := l.Since(0, "", 0)
			if len(page.Entries) != 5 || page.Next != 5 {
				t.Fatalf("first page: %d entries next=%d, want 5 and 5", len(page.Entries), page.Next)
			}
			for i, e := range page.Entries {
				seq, at, key, n := k.read(e)
				if seq != uint64(i+1) || at == 0 || key != "a" || n != i {
					t.Fatalf("entry %d = seq %d time %d key %q n %d", i, seq, at, key, n)
				}
			}
			if page = l.Since(page.Next, "", 0); len(page.Entries) != 0 || page.Next != 5 || page.Entries == nil {
				t.Fatalf("empty poll: %d entries next=%d nil=%v", len(page.Entries), page.Next, page.Entries == nil)
			}
			appendN(l, 2, "b")
			if page = l.Since(5, "", 0); len(page.Entries) != 2 || seqs(page)[0] != 6 || page.Next != 7 {
				t.Fatalf("resume: seqs %v next=%d", seqs(page), page.Next)
			}
			// A cursor from the future is returned as it came.
			if page = l.Since(99, "", 0); len(page.Entries) != 0 || page.Next != 99 || page.Missed != 0 {
				t.Fatalf("future cursor: %d entries next=%d missed=%d", len(page.Entries), page.Next, page.Missed)
			}
		}},
		{"append stamps time unless the producer did", func(t *testing.T) {
			l := k.new(4)
			l.Append(k.rec("a", 0, 0))
			l.Append(k.rec("a", 1, 42))
			page := l.Since(0, "", 0)
			if _, at, _, _ := k.read(page.Entries[0]); at == 0 {
				t.Error("unstamped record kept a zero time")
			}
			if _, at, _, _ := k.read(page.Entries[1]); at != 42 {
				t.Errorf("producer's time overwritten: %d, want 42", at)
			}
		}},
		{"key filter advances Next past non-matches", func(t *testing.T) {
			l := k.new(32)
			for i := 0; i < 10; i++ {
				l.Append(k.rec([]string{"a", "b"}[i%2], i, 0))
			}
			page := l.Since(0, "b", 0)
			if len(page.Entries) != 5 || page.Next != 10 {
				t.Fatalf("filtered page: %d entries next=%d, want 5 and 10", len(page.Entries), page.Next)
			}
			for _, e := range page.Entries {
				if _, _, key, n := k.read(e); key != "b" || n%2 != 1 {
					t.Fatalf("filter leaked key %q n %d", key, n)
				}
			}
			// Seq 10 matched; a filter whose last match is earlier still
			// moves the cursor over the tail it examined.
			if page = l.Since(0, "a", 0); page.Next != 10 {
				t.Fatalf("next = %d, want 10", page.Next)
			}
		}},
		{"limit caps the page and the cursor", func(t *testing.T) {
			l := k.new(64)
			appendN(l, 10, "a")
			page := l.Since(0, "", 3)
			if len(page.Entries) != 3 || page.Next != 3 {
				t.Fatalf("first page: %d entries next=%d", len(page.Entries), page.Next)
			}
			if page = l.Since(page.Next, "", 3); len(page.Entries) != 3 || seqs(page)[0] != 4 {
				t.Fatalf("second page: seqs %v", seqs(page))
			}
		}},
		{"eviction is reported as Missed exactly once", func(t *testing.T) {
			l := k.new(4)
			appendN(l, 10, "a") // seqs 1..10; the ring keeps 7..10
			page := l.Since(0, "", 0)
			if page.Missed != 6 || page.Evicted != 6 {
				t.Fatalf("missed=%d evicted=%d, want 6 and 6", page.Missed, page.Evicted)
			}
			if got := seqs(page); len(got) != 4 || got[0] != 7 {
				t.Fatalf("retained seqs %v, want 7..10", got)
			}
			if page = l.Since(page.Next, "", 0); page.Missed != 0 {
				t.Fatalf("post-hole missed = %d, want 0", page.Missed)
			}
			// A cursor inside the hole loses only what it had not seen.
			if page = l.Since(4, "", 0); page.Missed != 2 {
				t.Fatalf("missed from cursor 4 = %d, want 2", page.Missed)
			}
		}},
		{"exactly-once cursor across eviction churn", func(t *testing.T) {
			l := k.new(16)
			seen := make(map[uint64]int)
			var cursor, missed, published uint64
			poll := func() {
				page := l.Since(cursor, "", 0)
				for _, seq := range seqs(page) {
					if seq <= cursor {
						t.Fatalf("re-delivered seq %d at cursor %d", seq, cursor)
					}
					seen[seq]++
				}
				missed += page.Missed
				cursor = page.Next
			}
			for round := 0; round < 40; round++ {
				// Bursts of 3..31: most overflow the ring between polls.
				burst := 3 + round%29
				appendN(l, burst, "a")
				published += uint64(burst)
				poll()
			}
			poll()
			for seq, n := range seen {
				if n != 1 {
					t.Fatalf("seq %d delivered %d times", seq, n)
				}
			}
			if got := uint64(len(seen)) + missed; got != published || cursor != published {
				t.Fatalf("delivered %d + missed %d = %d, cursor %d, want %d published",
					len(seen), missed, got, cursor, published)
			}
			if missed == 0 {
				t.Error("churn never outran the poller; eviction path untested")
			}
		}},
		{"120k records churn at fixed memory", func(t *testing.T) {
			const capacity, published = 1024, 120_000
			l := k.new(capacity)
			for i := 0; i < published; i++ {
				l.Append(k.rec("k"+strconv.Itoa(i%3), i, 0))
			}
			if l.Len() != capacity || l.Cap() != capacity {
				t.Fatalf("Len=%d Cap=%d, want exactly the capacity %d", l.Len(), l.Cap(), capacity)
			}
			var total uint64
			for _, c := range l.Counts() {
				total += c
			}
			page := l.Since(0, "", 0)
			if total != published || page.Next != published || l.Dropped() != 0 {
				t.Fatalf("counts sum %d, last seq %d, dropped %d, want %d, %d, 0",
					total, page.Next, l.Dropped(), published, published)
			}
			if page.Evicted != published-capacity || page.Missed != published-capacity {
				t.Fatalf("evicted=%d missed=%d, want %d", page.Evicted, page.Missed, published-capacity)
			}
			// Retained records are the newest `capacity`, contiguous, in order.
			for i, e := range page.Entries {
				seq, _, _, n := k.read(e)
				if want := published - capacity + i; seq != uint64(want+1) || n != want {
					t.Fatalf("entry %d = seq %d n %d, want seq %d n %d", i, seq, n, want+1, want)
				}
			}
		}},
		{"counts are lifetime totals per key", func(t *testing.T) {
			l := k.new(4)
			appendN(l, 6, "a")
			appendN(l, 3, "b")
			counts := l.Counts()
			if counts["a"] != 6 || counts["b"] != 3 || len(counts) != 2 {
				t.Fatalf("counts = %v", counts)
			}
			counts["a"] = 0 // a copy: the log's own tally is untouched
			if l.Counts()["a"] != 6 {
				t.Fatal("Counts returned the live map")
			}
		}},
		{"nil log discards and reads empty", func(t *testing.T) {
			var l *ringlog.Log[T]
			if seq := l.Append(k.rec("a", 0, 0)); seq != 0 {
				t.Fatalf("nil Append returned %d", seq)
			}
			if page := l.Since(7, "", 0); len(page.Entries) != 0 || page.Entries == nil || page.Next != 7 {
				t.Fatalf("nil Since = %+v", page)
			}
			if l.Dropped() != 0 || l.Len() != 0 || l.Cap() != 0 || l.Counts() != nil {
				t.Fatal("nil accessors not zero")
			}
		}},
		{"concurrent producers and pollers", func(t *testing.T) {
			const producers, per, capacity = 8, 500, 128
			l := k.new(capacity)
			var wg sync.WaitGroup
			for g := 0; g < producers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						l.Append(k.rec("a", g*per+i, 0))
						if i%10 == 0 {
							l.Since(0, "", 10)
						}
					}
				}()
			}
			wg.Wait()
			page := l.Since(0, "", 0)
			if got := l.Counts()["a"]; got != producers*per {
				t.Fatalf("counted = %d, want %d", got, producers*per)
			}
			if page.Next != l.Counts()["a"] || l.Len() != capacity {
				t.Fatalf("last seq %d, counted %d, Len %d", page.Next, l.Counts()["a"], l.Len())
			}
			for i, seq := range seqs(page) {
				if want := page.Next - capacity + uint64(i) + 1; seq != want {
					t.Fatalf("retained seq %d at %d, want %d (seqs must be unique and contiguous)", seq, i, want)
				}
			}
		}},
		{"an unread log keeps its newest records", func(t *testing.T) {
			const capacity, total = 16, 100_000
			l := k.new(capacity)
			// No reader runs while these are appended.
			for i := 0; i < total; i++ {
				if seq := l.Append(k.rec("a", i, 0)); seq != uint64(i+1) {
					t.Fatalf("Append %d returned seq %d", i, seq)
				}
			}
			page := l.Since(0, "", 0)
			if page.Dropped != 0 || page.Next != total || page.Evicted != total-capacity || len(page.Entries) != capacity {
				t.Fatalf("page dropped=%d next=%d evicted=%d entries=%d, want 0, %d, %d, %d",
					page.Dropped, page.Next, page.Evicted, len(page.Entries), total, total-capacity, capacity)
			}
			for i, e := range page.Entries {
				if seq, _, _, n := k.read(e); seq != uint64(total-capacity+i+1) || n != total-capacity+i {
					t.Fatalf("entry %d = seq %d n %d, want the newest %d records, contiguous", i, seq, n, capacity)
				}
			}
		}},
	}
	for _, row := range rows {
		t.Run(k.name+"/"+row.name, row.run)
	}
}

// BenchmarkAppend measures Append with 1, 2 and 8 producers on one log,
// with no reader. dropped/op reports the share of records shed.
func BenchmarkAppend(b *testing.B) {
	benchAppend(b, eventKind)
	benchAppend(b, auditKind)
}

func benchAppend[T any](b *testing.B, k kind[T]) {
	for _, producers := range []int{1, 2, 8} {
		b.Run(k.name+"/producers="+strconv.Itoa(producers), func(b *testing.B) {
			l := k.new(0)
			rec := k.rec("a", 1, 0)
			per := (b.N + producers - 1) / producers
			var wg sync.WaitGroup
			b.ResetTimer()
			for g := 0; g < producers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						l.Append(rec)
					}
				}()
			}
			wg.Wait()
			b.ReportMetric(float64(l.Dropped())/float64(producers*per), "dropped/op")
		})
	}
}
