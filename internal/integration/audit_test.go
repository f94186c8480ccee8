package integration

import (
	"encoding/json"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/client"
	"repro/internal/core"
)

// TestAuditPhaseBreakdownJoinsTrace is the observability acceptance
// path: a single create on a persistent, fsyncing master produces an
// audit entry whose phase breakdown (queue wait, lock wait, apply,
// edit-log append, fsync) is fully populated, and whose trace ID joins
// the entry to the master.create span carrying the same phases as
// annotations — the end-to-end story `octopus-cli audit` + `trace`
// tell an operator about one slow create.
func TestAuditPhaseBreakdownJoinsTrace(t *testing.T) {
	c := startTestCluster(t, func(cfg *ClusterConfig) {
		cfg.NumWorkers = 2
		cfg.NumRacks = 1
		cfg.BlockSize = 1 << 20
		cfg.MetaDir = filepath.Join(cfg.Dir, "meta")
		cfg.EditLogSync = true
	})
	fs, err := c.Client("")
	if err != nil {
		t.Fatalf("Client: %v", err)
	}
	defer fs.Close()

	w, err := fs.Create("/audited.bin", client.CreateOptions{
		RepVector: core.ReplicationVectorFromFactor(2),
	})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	reqID := w.ReqID()
	if _, err := w.Write(randomBytes(1<<20, 3)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The audit entry records the create with its full phase breakdown.
	page, counts, err := fs.Audit(0, "create", 0)
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	var entry *audit.Entry
	for i := range page.Entries {
		if page.Entries[i].Path == "/audited.bin" {
			entry = &page.Entries[i]
		}
	}
	if entry == nil {
		t.Fatalf("no create audit entry for /audited.bin in %d entries", len(page.Entries))
	}
	if entry.Result != "ok" {
		t.Errorf("Result = %q, want ok", entry.Result)
	}
	if entry.TraceID != reqID {
		t.Errorf("TraceID = %q, want the client request ID %q", entry.TraceID, reqID)
	}
	if entry.ApplyNs <= 0 {
		t.Errorf("ApplyNs = %d, want > 0", entry.ApplyNs)
	}
	if entry.AppendNs <= 0 {
		t.Errorf("AppendNs = %d, want > 0 (persistent master must log the edit)", entry.AppendNs)
	}
	if entry.FsyncNs <= 0 {
		t.Errorf("FsyncNs = %d, want > 0 (EditLogSync must pay a real fsync)", entry.FsyncNs)
	}
	if entry.QueueNs < 0 || entry.LockWaitNs < 0 {
		t.Errorf("negative wait phases: queue %d, lock %d", entry.QueueNs, entry.LockWaitNs)
	}
	if entry.TotalNs < entry.ApplyNs+entry.AppendNs {
		t.Errorf("TotalNs %d < apply %d + append %d", entry.TotalNs, entry.ApplyNs, entry.AppendNs)
	}
	if counts["create"] == 0 {
		t.Error("lifetime counts missing create")
	}

	// Every mutation of the write shares the create's trace ID, so the
	// audit stream reconstructs the whole file lifecycle.
	full, _, err := fs.Audit(0, "", 0)
	if err != nil {
		t.Fatalf("Audit all: %v", err)
	}
	sameTrace := map[string]bool{}
	for _, e := range full.Entries {
		if e.TraceID == reqID {
			sameTrace[e.Op] = true
		}
	}
	for _, op := range []string{"create", "addBlock", "commitBlock", "complete"} {
		if !sameTrace[op] {
			t.Errorf("no %s audit entry under trace %s (got %v)", op, reqID, sameTrace)
		}
	}

	// The trace ID joins the entry to the master.create span, which
	// carries the same phase breakdown as annotations.
	waitFor(t, 5*time.Second, "master.create span with phase annotations", func() bool {
		spans, err := fs.Trace(entry.TraceID)
		if err != nil {
			return false
		}
		for _, sp := range spans {
			if sp.Op == "master.create" && sp.Attrs["apply_ns"] != "" {
				for _, key := range []string{"queue_ns", "lock_wait_ns", "apply_ns", "append_ns", "fsync_ns"} {
					if sp.Attrs[key] == "" {
						t.Errorf("master.create span missing %s annotation (attrs %v)", key, sp.Attrs)
					}
				}
				return true
			}
		}
		return false
	})

	// /debug/audit serves the same entry over HTTP with cursoring.
	addr := c.Master.HTTPAddr()
	resp, err := http.Get("http://" + addr + "/debug/audit?op=create")
	if err != nil {
		t.Fatalf("GET /debug/audit: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/audit = %s", resp.Status)
	}
	var doc struct {
		Entries []audit.Entry `json:"entries"`
		Next    uint64        `json:"next"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding /debug/audit: %v", err)
	}
	httpSeen := false
	for _, e := range doc.Entries {
		if e.Path == "/audited.bin" && e.TraceID == reqID {
			httpSeen = true
		}
	}
	if !httpSeen {
		t.Error("/debug/audit?op=create did not serve the create entry")
	}
	if doc.Next == 0 {
		t.Error("/debug/audit cursor is zero")
	}

	// The contention instrumentation shows up in the exposition.
	body := fetchMetrics(t, addr, "")
	for _, name := range []string{
		"octopus_master_rpc_inflight",
		"octopus_master_ns_lock_wait_seconds",
		"octopus_master_editlog_append_seconds",
		"octopus_master_editlog_fsync_seconds",
		"octopus_master_rpc_queue_wait_seconds",
	} {
		if !strings.Contains(body, name) {
			t.Errorf("metrics exposition missing %s", name)
		}
	}
}

// TestAuditCursorAndFailures covers the audit stream's operator
// contract: failed operations are recorded with their error text, the
// op filter isolates one operation, and polling with since = page.Next
// never re-delivers an entry.
func TestAuditCursorAndFailures(t *testing.T) {
	c := startTestCluster(t, func(cfg *ClusterConfig) {
		cfg.NumWorkers = 2
		cfg.NumRacks = 1
	})
	fs, err := c.Client("")
	if err != nil {
		t.Fatalf("Client: %v", err)
	}
	defer fs.Close()

	if err := fs.Mkdir("/a", false); err != nil {
		t.Fatalf("Mkdir: %v", err)
	}
	if _, err := fs.Stat("/missing"); err == nil {
		t.Fatal("Stat(/missing) succeeded")
	}

	page, _, err := fs.Audit(0, "getFileInfo", 0)
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	var failed *audit.Entry
	for i := range page.Entries {
		if page.Entries[i].Path == "/missing" {
			failed = &page.Entries[i]
		}
	}
	if failed == nil {
		t.Fatal("failed stat not audited")
	}
	if failed.Result == "ok" || failed.Result == "" {
		t.Errorf("failed stat Result = %q, want the error text", failed.Result)
	}

	// Exactly-once cursoring: a second poll from Next yields only ops
	// issued after the first page.
	cursor := page.Next
	if err := fs.Mkdir("/b", false); err != nil {
		t.Fatalf("Mkdir: %v", err)
	}
	next, _, err := fs.Audit(cursor, "mkdir", 0)
	if err != nil {
		t.Fatalf("Audit since %d: %v", cursor, err)
	}
	if len(next.Entries) != 1 || next.Entries[0].Path != "/b" {
		t.Fatalf("cursor page = %+v, want exactly the /b mkdir", next.Entries)
	}
	if next.Entries[0].Seq <= cursor {
		t.Errorf("re-delivered seq %d at cursor %d", next.Entries[0].Seq, cursor)
	}
}
