package events

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/httpjson"
)

// TestJournalBounded proves the acceptance bound: publishing far more
// events than the capacity never grows the journal past it, while the
// lifetime counters keep exact totals.
func TestJournalBounded(t *testing.T) {
	const capacity = 1024
	const published = 120_000
	j := NewJournal(capacity)
	for i := 0; i < published; i++ {
		j.Publish(Info, fmt.Sprintf("type%d", i%3), "msg", "k", "v")
	}
	if got := j.Log().Len(); got != capacity {
		t.Fatalf("Len = %d, want exactly the capacity %d", got, capacity)
	}
	if got := j.Log().Cap(); got != capacity {
		t.Fatalf("Cap = %d, want %d (ring must not reallocate)", got, capacity)
	}
	var total uint64
	for _, c := range j.Log().Counts() {
		total += c
	}
	if total != published {
		t.Fatalf("sum of Counts = %d, want %d", total, published)
	}
	// Retained events are the newest `capacity`, in order, contiguous.
	page := j.Since(0, "", 0)
	if len(page.Entries) != capacity {
		t.Fatalf("retained %d events, want %d", len(page.Entries), capacity)
	}
	for i, e := range page.Entries {
		want := uint64(published - capacity + 1 + i)
		if e.Seq != want {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, want)
		}
	}
	if page.Missed != published-capacity || page.Evicted != published-capacity {
		t.Fatalf("Missed from cursor 0 = %d, Evicted = %d, want %d", page.Missed, page.Evicted, published-capacity)
	}
	if page.Next != published {
		t.Fatalf("last seq = %d, want %d", page.Next, published)
	}
}

// TestCursorExactlyOnceAcrossEviction drives a poller cursor while the
// journal churns past its capacity: every retained event must be
// delivered exactly once, and every event lost to eviction must be
// reported in Missed, never silently skipped.
func TestCursorExactlyOnceAcrossEviction(t *testing.T) {
	const capacity = 16
	j := NewJournal(capacity)

	seen := make(map[uint64]int)
	var cursor, missed uint64
	poll := func() {
		page := j.Since(cursor, "", 0)
		for _, e := range page.Entries {
			if e.Seq <= cursor {
				t.Fatalf("re-delivered seq %d at cursor %d", e.Seq, cursor)
			}
			seen[e.Seq]++
		}
		missed += page.Missed
		cursor = page.Next
	}

	var published uint64
	for round := 0; round < 40; round++ {
		// Publish a burst; odd rounds overflow the ring between polls.
		burst := 3 + round%29
		for i := 0; i < burst; i++ {
			j.Publish(Info, "churn", "m")
			published++
		}
		poll()
	}
	poll()

	for seq, n := range seen {
		if n != 1 {
			t.Fatalf("seq %d delivered %d times", seq, n)
		}
	}
	if got := uint64(len(seen)) + missed; got != published {
		t.Fatalf("delivered(%d) + missed(%d) = %d, want %d published",
			len(seen), missed, got, published)
	}
	if cursor != published {
		t.Fatalf("final cursor %d, want %d", cursor, published)
	}
}

// TestSinceTypeFilterAndLimit exercises the type filter (which must
// still advance the cursor past non-matching events) and page limits.
func TestSinceTypeFilterAndLimit(t *testing.T) {
	j := NewJournal(64)
	for i := 0; i < 10; i++ {
		typ := "a"
		if i%2 == 1 {
			typ = "b"
		}
		j.Publish(Warn, typ, "m")
	}
	page := j.Since(0, "b", 0)
	if len(page.Entries) != 5 {
		t.Fatalf("type filter returned %d events, want 5", len(page.Entries))
	}
	for _, e := range page.Entries {
		if e.Type != "b" {
			t.Fatalf("filtered page contains type %q", e.Type)
		}
	}
	if page.Next != 10 {
		t.Fatalf("filtered Next = %d, want 10 (cursor advances past non-matches)", page.Next)
	}

	page = j.Since(0, "", 3)
	if len(page.Entries) != 3 || page.Next != 3 {
		t.Fatalf("limit page: %d events next=%d, want 3 events next=3", len(page.Entries), page.Next)
	}
	page = j.Since(page.Next, "", 3)
	if len(page.Entries) != 3 || page.Entries[0].Seq != 4 {
		t.Fatalf("second page starts at seq %d, want 4", page.Entries[0].Seq)
	}
}

// TestNilJournal proves the publish/read paths are nil-safe.
func TestNilJournal(t *testing.T) {
	var j *Journal
	if seq := j.Publish(Info, "x", "m"); seq != 0 {
		t.Fatalf("nil Publish returned %d", seq)
	}
	if p := j.Since(0, "", 0); len(p.Entries) != 0 || p.Next != 0 {
		t.Fatalf("nil Since returned %+v", p)
	}
	if j.Log().Len() != 0 || j.Log().Cap() != 0 || j.Log().Counts() != nil {
		t.Fatal("nil accessors not zero")
	}
}

// TestPublishConcurrent hammers the journal from many goroutines under
// the race detector: sequence numbers must stay unique and the ring
// bounded.
func TestPublishConcurrent(t *testing.T) {
	j := NewJournal(128)
	var wg sync.WaitGroup
	const workers, per = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				j.Publish(Info, "c", "m")
				j.Since(0, "", 10)
			}
		}()
	}
	wg.Wait()
	if got := j.Since(0, "", 1).Evicted + uint64(j.Log().Len()); got != workers*per {
		t.Fatalf("last seq = %d, want %d", got, workers*per)
	}
	if j.Log().Len() != 128 {
		t.Fatalf("Len = %d, want 128", j.Log().Len())
	}
}

// TestDebugHandler exercises the /debug/events endpoint: full dump,
// since cursoring, type filtering, and bad-parameter rejection.
func TestDebugHandler(t *testing.T) {
	j := NewJournal(32)
	j.Publish(Info, "alpha", "first")
	j.PublishTraced(Warn, "beta", "cafecafecafecafe", "second", "worker", "node1")
	mux := http.NewServeMux()
	mux.Handle("/debug/events", httpjson.LogHandler(j.Log(), "type", nil))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	type debugResponse struct {
		Page
		Counts map[string]uint64 `json:"counts"`
	}
	get := func(path string) (debugResponse, int) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc debugResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
				t.Fatalf("decoding %s: %v", path, err)
			}
		}
		return doc, resp.StatusCode
	}

	doc, code := get("/debug/events")
	if code != http.StatusOK || len(doc.Entries) != 2 || doc.Next != 2 {
		t.Fatalf("full dump: code=%d events=%d next=%d", code, len(doc.Entries), doc.Next)
	}
	if doc.Counts["alpha"] != 1 || doc.Counts["beta"] != 1 {
		t.Fatalf("counts = %v", doc.Counts)
	}
	if doc.Entries[1].TraceID != "cafecafecafecafe" || doc.Entries[1].Attrs["worker"] != "node1" {
		t.Fatalf("event payload = %+v", doc.Entries[1])
	}

	doc, _ = get("/debug/events?since=1")
	if len(doc.Entries) != 1 || doc.Entries[0].Type != "beta" {
		t.Fatalf("since=1 returned %+v", doc.Entries)
	}
	doc, _ = get("/debug/events?type=alpha")
	if len(doc.Entries) != 1 || doc.Entries[0].Type != "alpha" {
		t.Fatalf("type filter returned %+v", doc.Entries)
	}
	doc, _ = get("/debug/events?since=99")
	if len(doc.Entries) != 0 || doc.Next != 99 {
		t.Fatalf("future cursor: events=%d next=%d", len(doc.Entries), doc.Next)
	}
	if _, code := get("/debug/events?since=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad since accepted: %d", code)
	}
	if _, code := get("/debug/events?limit=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad limit accepted: %d", code)
	}
}
