package worker

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/rpc"
)

// TestWorkerHTTPRouting starts the worker's HTTP server and checks
// every mounted route answers: /status, /metrics (text and JSON),
// /healthz, and /debug/events with ?since cursoring and parameter
// validation.
func TestWorkerHTTPRouting(t *testing.T) {
	_, w := testWorker(t)
	addr, err := w.ServeHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/status")
	var st WorkerStatus
	if code != http.StatusOK {
		t.Fatalf("/status = %d", code)
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/status JSON: %v", err)
	}
	if st.ID != "wtest" || len(st.Media) != 2 {
		t.Errorf("/status = %+v, want wtest with 2 media", st)
	}

	if code, body = get("/metrics"); code != http.StatusOK || body == "" {
		t.Errorf("/metrics = %d, body %d bytes", code, len(body))
	}
	_, body = get("/metrics?format=json")
	var decoded []map[string]any
	if err := json.Unmarshal([]byte(body), &decoded); err != nil {
		t.Errorf("/metrics?format=json: %v", err)
	}
	if code, _ = get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz = %d", code)
	}

	// The worker journals its own block lifecycle; seed events and walk
	// the cursor through the debug endpoint.
	w.Journal().Publish(events.Info, "test_a", "first")
	w.Journal().Publish(events.Warn, "test_b", "second")
	code, body = get("/debug/events")
	if code != http.StatusOK {
		t.Fatalf("/debug/events = %d", code)
	}
	var page struct {
		Entries []events.Event    `json:"entries"`
		Next    uint64            `json:"next"`
		Counts  map[string]uint64 `json:"counts"`
	}
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatalf("/debug/events JSON: %v", err)
	}
	if len(page.Entries) < 2 || page.Counts["test_a"] != 1 {
		t.Fatalf("/debug/events page = %+v", page)
	}
	for i := 1; i < len(page.Entries); i++ {
		if page.Entries[i].Seq <= page.Entries[i-1].Seq {
			t.Fatalf("seqs not monotonic at %d", i)
		}
	}

	w.Journal().Publish(events.Error, "test_c", "third")
	_, body = get("/debug/events?since=" + strconv.FormatUint(page.Next, 10))
	var next struct {
		Entries []events.Event `json:"entries"`
	}
	if err := json.Unmarshal([]byte(body), &next); err != nil {
		t.Fatal(err)
	}
	if len(next.Entries) != 1 || next.Entries[0].Type != "test_c" {
		t.Fatalf("cursor page = %+v, want only test_c", next.Entries)
	}

	if code, _ = get("/debug/events?since=bogus"); code != http.StatusBadRequest {
		t.Errorf("?since=bogus = %d, want 400", code)
	}
	if code, _ = get("/debug/events?limit=bogus"); code != http.StatusBadRequest {
		t.Errorf("?limit=bogus = %d, want 400", code)
	}
}

// TestWorkerHTTPAddrAdvertised checks the bound debug address reaches
// the master through heartbeats, so admin tools can fan out health
// checks without configuration.
func TestWorkerHTTPAddrAdvertised(t *testing.T) {
	_, w := testWorker(t)
	addr, err := w.ServeHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if got := w.HTTPAddr(); got != addr {
		t.Fatalf("HTTPAddr() = %q, want %q", got, addr)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		var reply rpc.WorkerReportsReply
		if err := w.master.Call("Master.GetWorkerReports", &rpc.WorkerReportsArgs{}, &reply); err != nil {
			t.Fatal(err)
		}
		if len(reply.Workers) == 1 && reply.Workers[0].HTTPAddr == addr {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("master never learned the worker http addr: %+v", reply.Workers)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
