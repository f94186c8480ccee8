package master

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/rpc"
	"repro/internal/xfer"
)

// eventsPage mirrors the /debug/events JSON document.
type eventsPage struct {
	Entries []events.Event    `json:"entries"`
	Next    uint64            `json:"next"`
	Missed  uint64            `json:"missed"`
	Counts  map[string]uint64 `json:"counts"`
}

// getJSON fetches a URL and decodes the JSON body into out, returning
// the HTTP status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode
}

// TestHTTPDebugEventsEndpoint exercises the /debug/events route:
// registration events appear, ?type filters, ?since resumes the cursor
// without re-delivery, and malformed parameters are rejected.
func TestHTTPDebugEventsEndpoint(t *testing.T) {
	m := testMaster(t)
	registerFakeWorker(t, m, "w1", "/r1", mediaStat("w1:hdd0", core.TierHDD, 400<<20, 120, 170))
	registerFakeWorker(t, m, "w2", "/r1", mediaStat("w2:hdd0", core.TierHDD, 400<<20, 120, 170))
	addr, err := m.ServeHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr + "/debug/events"

	var page eventsPage
	if code := getJSON(t, base, &page); code != http.StatusOK {
		t.Fatalf("GET /debug/events = %d", code)
	}
	if len(page.Entries) < 2 {
		t.Fatalf("events = %d, want >= 2 worker registrations", len(page.Entries))
	}
	for i := 1; i < len(page.Entries); i++ {
		if page.Entries[i].Seq <= page.Entries[i-1].Seq {
			t.Fatalf("seqs not monotonic: %d after %d", page.Entries[i].Seq, page.Entries[i-1].Seq)
		}
	}
	if page.Counts["worker_register"] != 2 {
		t.Errorf("counts[worker_register] = %d, want 2", page.Counts["worker_register"])
	}

	// Type filter returns only matching events.
	var filtered eventsPage
	getJSON(t, base+"?type=worker_register", &filtered)
	if len(filtered.Entries) != 2 {
		t.Fatalf("filtered events = %d, want 2", len(filtered.Entries))
	}
	for _, e := range filtered.Entries {
		if e.Type != "worker_register" {
			t.Errorf("filter leaked event type %q", e.Type)
		}
	}

	// Cursoring: resuming from Next delivers only what was published
	// after the first page, never re-delivering.
	m.Journal().Publish(events.Info, "test_event", "one more")
	var next eventsPage
	getJSON(t, base+"?since="+utoa(page.Next), &next)
	if len(next.Entries) != 1 || next.Entries[0].Type != "test_event" {
		t.Fatalf("cursor page = %+v, want exactly the one new event", next.Entries)
	}
	if next.Entries[0].Seq <= page.Next {
		t.Errorf("new event seq %d not past cursor %d", next.Entries[0].Seq, page.Next)
	}

	// Malformed parameters are 400s, not panics or empty pages.
	var ignore eventsPage
	if code := getJSON(t, base+"?since=bogus", &ignore); code != http.StatusBadRequest {
		t.Errorf("GET ?since=bogus = %d, want 400", code)
	}
	if code := getJSON(t, base+"?limit=bogus", &ignore); code != http.StatusBadRequest {
		t.Errorf("GET ?limit=bogus = %d, want 400", code)
	}
}

// TestHTTPDebugEventsEvictionChurn floods the journal faster than an
// HTTP cursor reads it and checks the exactly-once contract across
// eviction: no event is re-delivered, and every gap is accounted for in
// Missed rather than silently skipped.
func TestHTTPDebugEventsEvictionChurn(t *testing.T) {
	m := testMaster(t)
	addr, err := m.ServeHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr + "/debug/events"

	capacity := m.Journal().Log().Cap()
	total := 5 * capacity
	published := 0
	publish := func(n int) {
		for i := 0; i < n; i++ {
			m.Journal().Publish(events.Info, "churn", "spin")
			published++
		}
	}

	// The master journals its own lifecycle (master_started); start the
	// cursor past pre-existing events so the exactly-once accounting
	// below covers only this test's publishes.
	var cursor, delivered, missed uint64
	cursor = m.Journal().Since(0, "", 0).Next

	publish(capacity + capacity/2) // more than capacity before the first poll
	for {
		var page eventsPage
		getJSON(t, base+"?since="+utoa(cursor)+"&limit=500", &page)
		missed += page.Missed
		for _, e := range page.Entries {
			if e.Seq <= cursor {
				t.Fatalf("re-delivered seq %d at cursor %d", e.Seq, cursor)
			}
			cursor = e.Seq
			delivered++
		}
		if page.Next > cursor {
			cursor = page.Next
		}
		if published < total {
			publish(1000) // churn between polls, forcing eviction under the reader
		} else if len(page.Entries) == 0 {
			break
		}
	}
	if delivered+missed != uint64(published) {
		t.Fatalf("delivered %d + missed %d = %d, want %d (events lost or duplicated)",
			delivered, missed, delivered+missed, published)
	}
	if missed == 0 {
		t.Error("churn never outran the reader; eviction path untested")
	}
	if delivered == 0 {
		t.Error("reader never caught a retained event")
	}
}

// TestHTTPDebugHistoryEndpoint checks the /debug/history route serves
// the telemetry ring ending in a live sample and rejects bad params.
func TestHTTPDebugHistoryEndpoint(t *testing.T) {
	m := testMaster(t)
	registerFakeWorker(t, m, "w1", "/r1", mediaStat("w1:hdd0", core.TierHDD, 400<<20, 120, 170))
	addr, err := m.ServeHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	var doc struct {
		Samples []rpc.ClusterSample `json:"samples"`
	}
	if code := getJSON(t, "http://"+addr+"/debug/history", &doc); code != http.StatusOK {
		t.Fatalf("GET /debug/history = %d", code)
	}
	if len(doc.Samples) == 0 {
		t.Fatal("no samples; the live sample must always be appended")
	}
	live := doc.Samples[len(doc.Samples)-1]
	if live.TimeNs == 0 || len(live.Workers) != 1 || live.Workers[0].ID != "w1" {
		t.Errorf("live sample = %+v, want one w1 worker with a timestamp", live)
	}
	if live.Workers[0].Capacity != 400<<20 {
		t.Errorf("w1 capacity = %d, want %d", live.Workers[0].Capacity, int64(400<<20))
	}

	doc.Samples = nil
	getJSON(t, "http://"+addr+"/debug/history?last=1", &doc)
	if len(doc.Samples) != 1 {
		t.Errorf("?last=1 returned %d samples", len(doc.Samples))
	}

	var ignore any
	if code := getJSON(t, "http://"+addr+"/debug/history?last=bogus", &ignore); code != http.StatusBadRequest {
		t.Errorf("GET ?last=bogus = %d, want 400", code)
	}
}

// TestDecommissionRefusesReRegistration covers the operator-initiated
// removal path: the worker disappears, a decommission event is
// journaled, and the worker cannot come back.
func TestDecommissionRefusesReRegistration(t *testing.T) {
	m := testMaster(t)
	registerFakeWorker(t, m, "w1", "/r1", mediaStat("w1:hdd0", core.TierHDD, 400<<20, 120, 170))

	svc := &Service{m: m}
	if err := svc.Decommission(&rpc.DecommissionArgs{ID: "w1"}, &rpc.DecommissionReply{}); err != nil {
		t.Fatalf("Decommission: %v", err)
	}
	if m.NumWorkers() != 0 {
		t.Fatalf("workers = %d after decommission, want 0", m.NumWorkers())
	}
	page := m.Journal().Since(0, "worker_decommissioned", 0)
	if len(page.Entries) != 1 {
		t.Fatalf("decommission events = %d, want 1", len(page.Entries))
	}

	err := svc.Register(&rpc.RegisterArgs{
		ID: "w1", Node: "w1", Rack: "/r1", DataAddr: "127.0.0.1:1",
		Media: []rpc.MediaStat{mediaStat("w1:hdd0", core.TierHDD, 400<<20, 120, 170)},
	}, &rpc.RegisterReply{})
	if err == nil {
		t.Fatal("decommissioned worker re-registered")
	}

	if err := svc.Decommission(&rpc.DecommissionArgs{ID: "ghost"}, &rpc.DecommissionReply{}); err == nil {
		t.Fatal("decommission of unknown worker succeeded")
	}
}

// TestHTTPDebugMoverEndpoint exercises the /debug/mover route: the
// status document is served, ?limit trims the recent-move ring, and a
// malformed ?limit is a 400 rather than a panic or a silently full
// page (matching the /debug/audit parameter contract).
func TestHTTPDebugMoverEndpoint(t *testing.T) {
	m := testMaster(t)
	m.mover.mu.Lock()
	m.mover.pushRecentLocked(rpc.MoveRecord{Block: 1, Kind: "promote"})
	m.mover.pushRecentLocked(rpc.MoveRecord{Block: 2, Kind: "demote"})
	m.mover.mu.Unlock()
	addr, err := m.ServeHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr + "/debug/mover"

	var st rpc.MoverStatus
	if code := getJSON(t, base, &st); code != http.StatusOK {
		t.Fatalf("GET /debug/mover = %d", code)
	}
	if len(st.Recent) != 2 {
		t.Fatalf("recent moves = %d, want 2", len(st.Recent))
	}

	var trimmed rpc.MoverStatus
	getJSON(t, base+"?limit=1", &trimmed)
	if len(trimmed.Recent) != 1 {
		t.Fatalf("recent moves with ?limit=1 = %d, want 1", len(trimmed.Recent))
	}
	if trimmed.Recent[0].Block != 2 {
		t.Errorf("?limit=1 kept block %d, want the newest (2)", trimmed.Recent[0].Block)
	}

	var ignore rpc.MoverStatus
	if code := getJSON(t, base+"?limit=bogus", &ignore); code != http.StatusBadRequest {
		t.Errorf("GET ?limit=bogus = %d, want 400", code)
	}
}

// transfersPage mirrors the /debug/transfers JSON document.
type transfersPage struct {
	Entries []xfer.Record     `json:"entries"`
	Next    uint64            `json:"next"`
	Counts  map[string]uint64 `json:"counts"`
	Conns   *rpc.ConnStats    `json:"conns"`
}

// TestHTTPDebugTransfersEndpoint exercises the master's
// /debug/transfers route: appended records are served with the
// connection-lifecycle snapshot attached, ?op filters, ?since resumes
// the cursor, and malformed parameters are 400s.
func TestHTTPDebugTransfersEndpoint(t *testing.T) {
	m := testMaster(t)
	m.TransferLog().Append(xfer.Record{Op: "read", Source: "client", Block: 7, Result: "ok"})
	m.TransferLog().Append(xfer.Record{Op: "write", Source: "client", Block: 8, Result: "ok"})
	addr, err := m.ServeHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr + "/debug/transfers"

	var page transfersPage
	if code := getJSON(t, base, &page); code != http.StatusOK {
		t.Fatalf("GET /debug/transfers = %d", code)
	}
	if len(page.Entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(page.Entries))
	}
	if page.Counts["read"] != 1 || page.Counts["write"] != 1 {
		t.Errorf("counts = %v, want one read and one write", page.Counts)
	}
	if page.Conns == nil {
		t.Error("conns snapshot missing from /debug/transfers")
	}

	var filtered transfersPage
	getJSON(t, base+"?op=read", &filtered)
	if len(filtered.Entries) != 1 || filtered.Entries[0].Op != "read" {
		t.Fatalf("?op=read entries = %+v, want exactly the read record", filtered.Entries)
	}

	m.TransferLog().Append(xfer.Record{Op: "read", Source: "client", Block: 9, Result: "ok"})
	var next transfersPage
	getJSON(t, base+"?since="+utoa(page.Next), &next)
	if len(next.Entries) != 1 || next.Entries[0].Block != 9 {
		t.Fatalf("cursor page = %+v, want exactly the one new record", next.Entries)
	}

	var ignore transfersPage
	if code := getJSON(t, base+"?since=bogus", &ignore); code != http.StatusBadRequest {
		t.Errorf("GET ?since=bogus = %d, want 400", code)
	}
	if code := getJSON(t, base+"?limit=bogus", &ignore); code != http.StatusBadRequest {
		t.Errorf("GET ?limit=bogus = %d, want 400", code)
	}
}

func utoa(v uint64) string {
	return formatBlockID(core.BlockID(v))
}
