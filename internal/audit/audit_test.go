package audit

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/httpjson"
)

// These tests drive the package's own surface end to end: New builds a
// log keyed by Op, Append stamps Time, the shared handler
// serves it. The ring itself is specified by the suite in
// internal/ringlog, which runs these cases against all three record
// types.

func appendN(l *Log, n int, op string) {
	for i := 0; i < n; i++ {
		l.Append(Entry{Op: op, Path: fmt.Sprintf("/f%d", i), Result: "ok", TotalNs: 1})
	}
}

func TestAppendSinceCursor(t *testing.T) {
	l := New(16)
	appendN(l, 5, "create")
	page := l.Since(0, "", 0)
	if len(page.Entries) != 5 {
		t.Fatalf("entries = %d, want 5", len(page.Entries))
	}
	for i, e := range page.Entries {
		if e.Seq != uint64(i+1) {
			t.Fatalf("entry %d seq = %d, want %d", i, e.Seq, i+1)
		}
		if e.Time == 0 {
			t.Fatalf("entry %d has zero time", i)
		}
	}
	if page.Next != 5 {
		t.Fatalf("next = %d, want 5", page.Next)
	}
	// Polling from the cursor returns nothing and leaves it in place.
	page = l.Since(page.Next, "", 0)
	if len(page.Entries) != 0 || page.Next != 5 {
		t.Fatalf("empty poll: entries=%d next=%d", len(page.Entries), page.Next)
	}
	appendN(l, 2, "delete")
	page = l.Since(5, "", 0)
	if len(page.Entries) != 2 || page.Entries[0].Seq != 6 || page.Next != 7 {
		t.Fatalf("resume: entries=%d next=%d", len(page.Entries), page.Next)
	}
}

func TestOpFilterAdvancesCursor(t *testing.T) {
	l := New(32)
	l.Append(Entry{Op: "create", Path: "/a", Result: "ok"})
	l.Append(Entry{Op: "list", Path: "/", Result: "ok"})
	l.Append(Entry{Op: "create", Path: "/b", Result: "ok"})
	page := l.Since(0, "create", 0)
	if len(page.Entries) != 2 {
		t.Fatalf("filtered entries = %d, want 2", len(page.Entries))
	}
	// The filtered-out "list" entry (seq 2) must still advance Next so
	// a create-only poller does not re-examine it.
	if page.Next != 3 {
		t.Fatalf("next = %d, want 3", page.Next)
	}
	if page.Entries[0].Path != "/a" || page.Entries[1].Path != "/b" {
		t.Fatalf("unexpected paths %q %q", page.Entries[0].Path, page.Entries[1].Path)
	}
}

func TestLimitCapsPage(t *testing.T) {
	l := New(64)
	appendN(l, 10, "stat")
	page := l.Since(0, "", 3)
	if len(page.Entries) != 3 || page.Next != 3 {
		t.Fatalf("limited page: entries=%d next=%d", len(page.Entries), page.Next)
	}
	page = l.Since(page.Next, "", 3)
	if len(page.Entries) != 3 || page.Entries[0].Seq != 4 {
		t.Fatalf("second page: entries=%d firstSeq=%d", len(page.Entries), page.Entries[0].Seq)
	}
}

func TestEvictionReportsMissed(t *testing.T) {
	l := New(4)
	appendN(l, 10, "mkdir") // seqs 1..10; ring keeps 7..10, evicted 6
	page := l.Since(0, "", 0)
	if page.Missed != 6 {
		t.Fatalf("missed = %d, want 6", page.Missed)
	}
	if page.Evicted != 6 {
		t.Fatalf("evicted = %d, want 6", page.Evicted)
	}
	if len(page.Entries) != 4 || page.Entries[0].Seq != 7 {
		t.Fatalf("retained: entries=%d firstSeq=%d", len(page.Entries), page.Entries[0].Seq)
	}
	// A cursor past the hole reports no further loss.
	page = l.Since(page.Next, "", 0)
	if page.Missed != 0 {
		t.Fatalf("post-hole missed = %d, want 0", page.Missed)
	}
}

func TestBacklogOverflowDropsAndCounts(t *testing.T) {
	l := New(16)
	// No reader runs, so the unread backlog overflows the ring: the
	// oldest records are dropped, the drop is counted as Evicted and
	// Missed, and the newest 16 survive. Append itself sheds nothing.
	const total = 1124
	appendN(l, total, "create")
	if got := l.Dropped(); got != 0 {
		t.Fatalf("dropped = %d, want 0", got)
	}
	page := l.Since(0, "", 0)
	if page.Dropped != 0 || page.Evicted != total-16 || page.Missed != total-16 {
		t.Fatalf("page dropped=%d evicted=%d missed=%d, want 0, %d, %d",
			page.Dropped, page.Evicted, page.Missed, total-16, total-16)
	}
	if page.Next != total || len(page.Entries) != 16 {
		t.Fatalf("next = %d entries = %d, want %d and 16", page.Next, len(page.Entries), total)
	}
	for i, e := range page.Entries {
		if want := fmt.Sprintf("/f%d", total-16+i); e.Path != want || e.Seq != uint64(total-16+i+1) {
			t.Fatalf("entry %d = seq %d path %q, want seq %d path %q", i, e.Seq, e.Path, total-16+i+1, want)
		}
	}
}

func TestCountsLifetime(t *testing.T) {
	l := New(4)
	appendN(l, 6, "create")
	appendN(l, 3, "rename")
	counts := l.Counts()
	if counts["create"] != 6 || counts["rename"] != 3 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestNilLogSafe(t *testing.T) {
	var l *Log
	l.Append(Entry{Op: "create"})
	if page := l.Since(0, "", 0); len(page.Entries) != 0 {
		t.Fatal("nil log returned entries")
	}
	if l.Dropped() != 0 || l.Len() != 0 || l.Cap() != 0 || l.Counts() != nil {
		t.Fatal("nil log accessors not zero")
	}
}

func TestConcurrentAppendAndPoll(t *testing.T) {
	l := New(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.Append(Entry{Op: "create", Path: fmt.Sprintf("/g%d/f%d", g, i), Result: "ok"})
				if i%50 == 0 {
					l.Since(0, "", 10)
				}
			}
		}(g)
	}
	wg.Wait()
	total := l.Dropped()
	for _, c := range l.Counts() {
		total += c
	}
	if total != 8*500 {
		t.Fatalf("accounted entries = %d, want %d", total, 8*500)
	}
}

func TestDebugHandler(t *testing.T) {
	l := New(16)
	appendN(l, 4, "create")
	l.Append(Entry{Op: "rename", Path: "/a", Dst: "/b", Result: "ok"})
	mux := http.NewServeMux()
	mux.Handle("/debug/audit", httpjson.LogHandler(l, "op", nil))

	get := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("GET", url, nil)
		mux.ServeHTTP(rec, req)
		return rec
	}

	rec := get("/debug/audit?op=rename")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, `"dst": "/b"`) || strings.Contains(body, `"op": "create"`) {
		t.Fatalf("filtered body = %s", body)
	}
	if !strings.Contains(body, `"counts"`) || !strings.Contains(body, `"next": 5`) {
		t.Fatalf("missing cursor/counts: %s", body)
	}

	if rec := get("/debug/audit?since=bogus"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad since: status = %d", rec.Code)
	}
	if rec := get("/debug/audit?limit=bogus"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad limit: status = %d", rec.Code)
	}
}
