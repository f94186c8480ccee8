package xfer

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/httpjson"
	"repro/internal/ringlog"
)

// These tests drive the package's own surface end to end: New builds a
// non-blocking log keyed by Op, Append stamps Time, the shared handler
// serves it. The ring itself is specified by the suite in
// internal/ringlog, which runs these cases against all three record
// types.

func appendN(l *Log, n int, op string) {
	for i := 0; i < n; i++ {
		l.Append(Record{Op: op, Block: uint64(i), Result: "ok", TotalNs: 1})
	}
}

func TestAppendSinceCursor(t *testing.T) {
	l := New(16)
	appendN(l, 5, "read")
	page := l.Since(0, "", 0)
	if len(page.Entries) != 5 {
		t.Fatalf("entries = %d, want 5", len(page.Entries))
	}
	for i, r := range page.Entries {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d seq = %d, want %d", i, r.Seq, i+1)
		}
		if r.Time == 0 {
			t.Fatalf("record %d has zero time", i)
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
	appendN(l, 2, "write")
	page = l.Since(5, "", 0)
	if len(page.Entries) != 2 || page.Entries[0].Seq != 6 || page.Next != 7 {
		t.Fatalf("resume: entries=%d next=%d", len(page.Entries), page.Next)
	}
}

func TestOpFilterAdvancesCursor(t *testing.T) {
	l := New(32)
	l.Append(Record{Op: "read", Block: 1, Result: "ok"})
	l.Append(Record{Op: "write", Block: 2, Result: "ok"})
	l.Append(Record{Op: "read", Block: 3, Result: "ok"})
	page := l.Since(0, "read", 0)
	if len(page.Entries) != 2 {
		t.Fatalf("filtered entries = %d, want 2", len(page.Entries))
	}
	// The filtered-out "write" record (seq 2) must still advance Next
	// so a read-only poller does not re-examine it.
	if page.Next != 3 {
		t.Fatalf("next = %d, want 3", page.Next)
	}
	if page.Entries[0].Block != 1 || page.Entries[1].Block != 3 {
		t.Fatalf("unexpected blocks %d %d", page.Entries[0].Block, page.Entries[1].Block)
	}
}

func TestLimitCapsPage(t *testing.T) {
	l := New(64)
	appendN(l, 10, "read")
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
	appendN(l, 10, "replicate") // seqs 1..10; ring keeps 7..10, evicted 6
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
	// Never draining (no Since call), so everything past the channel
	// backlog must be shed.
	total := ringlog.Backlog + 100
	appendN(l, total, "read")
	if got := l.Dropped(); got != 100 {
		t.Fatalf("dropped = %d, want 100", got)
	}
	// The backlog itself survives and drains in FIFO order.
	page := l.Since(0, "", 0)
	if page.Dropped != 100 {
		t.Fatalf("page dropped = %d, want 100", page.Dropped)
	}
	if page.Next != uint64(ringlog.Backlog) {
		t.Fatalf("next = %d, want %d", page.Next, ringlog.Backlog)
	}
	if last := page.Entries[len(page.Entries)-1]; last.Block != uint64(ringlog.Backlog-1) {
		t.Fatalf("last retained block = %d", last.Block)
	}
}

func TestCountsLifetime(t *testing.T) {
	l := New(4)
	appendN(l, 6, "read")
	appendN(l, 3, "write")
	counts := l.Counts()
	if counts["read"] != 6 || counts["write"] != 3 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestPhaseSum(t *testing.T) {
	r := Record{
		DialNs: 1, HeaderEncodeNs: 2, HeaderDecodeNs: 3, ThrottleWaitNs: 4,
		DiskNs: 5, NetNs: 6, ForwardNs: 7, AckWaitNs: 8, StallNs: 9,
	}
	if got := r.PhaseSumNs(); got != 45 {
		t.Fatalf("phase sum = %d, want 45", got)
	}
}

func TestNilLogSafe(t *testing.T) {
	var l *Log
	l.Append(Record{Op: "read"})
	if page := l.Since(0, "", 0); len(page.Entries) != 0 {
		t.Fatal("nil log returned records")
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
				l.Append(Record{Op: "read", Block: uint64(g*1000 + i), Result: "ok"})
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
		t.Fatalf("accounted records = %d, want %d", total, 8*500)
	}
}

func TestDebugHandler(t *testing.T) {
	l := New(16)
	appendN(l, 4, "read")
	l.Append(Record{Op: "write", Block: 42, Tier: "SSD", Result: "ok"})
	mux := http.NewServeMux()
	mux.Handle("/debug/transfers", httpjson.LogHandler(l, "op", func() any {
		return map[string]uint64{"dials": 7}
	}))

	get := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("GET", url, nil)
		mux.ServeHTTP(rec, req)
		return rec
	}

	rec := get("/debug/transfers?op=write")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, `"tier": "SSD"`) || strings.Contains(body, `"op": "read"`) {
		t.Fatalf("filtered body = %s", body)
	}
	if !strings.Contains(body, `"counts"`) || !strings.Contains(body, `"next": 5`) {
		t.Fatalf("missing cursor/counts: %s", body)
	}
	if !strings.Contains(body, `"dials": 7`) {
		t.Fatalf("missing conns snapshot: %s", body)
	}

	if rec := get("/debug/transfers?since=bogus"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad since: status = %d", rec.Code)
	}
	if rec := get("/debug/transfers?limit=bogus"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad limit: status = %d", rec.Code)
	}

	// The conns hook is optional; nil must serve fine and omit the key.
	mux2 := http.NewServeMux()
	mux2.Handle("/debug/transfers", httpjson.LogHandler(l, "op", nil))
	rec2 := httptest.NewRecorder()
	mux2.ServeHTTP(rec2, httptest.NewRequest("GET", "/debug/transfers", nil))
	if rec2.Code != http.StatusOK || strings.Contains(rec2.Body.String(), `"conns"`) {
		t.Fatalf("nil conns hook: status=%d body=%s", rec2.Code, rec2.Body.String())
	}
}
