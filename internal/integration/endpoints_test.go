package integration

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/xfer"
)

// jsonKeys decodes a JSON object and returns its keys, sorted and
// space-joined, plus the raw values.
func jsonKeys(t *testing.T, raw []byte) (string, map[string]json.RawMessage) {
	t.Helper()
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(raw, &obj); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, " "), obj
}

// TestDebugLogEndpointKeySets pins the JSON shape of every cursor-log
// endpoint on both daemons: the document's key set, the key set of one
// fully populated record (every omitempty field set), the named filter
// parameter, and the 400 on a malformed since or limit. Pollers and
// the benchmark's joiner parse these documents, so a key that moves is
// a breaking change and must show up here.
func TestDebugLogEndpointKeySets(t *testing.T) {
	c := startTestCluster(t, func(cfg *ClusterConfig) { cfg.NumWorkers = 1 })
	w := c.Workers[0]

	ev := func(j *events.Journal) {
		j.PublishTraced(events.Warn, "shape", "cafecafecafecafe", "message", "k", "v")
	}
	rec := xfer.Record{
		Op: "shape", Source: "test", Block: 7, Tier: "SSD", Peer: "127.0.0.1:1",
		TraceID: "cafecafecafecafe", SpanID: "0123456789abcdef", Result: "ok", Bytes: 1,
		DialNs: 1, HeaderEncodeNs: 1, HeaderDecodeNs: 1, ThrottleWaitNs: 1, DiskNs: 1,
		NetNs: 1, ForwardNs: 1, AckWaitNs: 1, StallNs: 1, TotalNs: 9, AllocBytes: 1, PoolHit: true,
	}
	ev(c.Master.Journal())
	ev(w.Journal())
	c.Master.AuditLog().Append(audit.Entry{
		Op: "shape", Path: "/a", Dst: "/b", TraceID: "cafecafecafecafe", Result: "ok", Bytes: 1,
		QueueNs: 1, LockWaitNs: 1, ApplyNs: 1, AppendNs: 1, FsyncNs: 1, TotalNs: 9,
	})
	// The master's copy of the record is the one the worker's heartbeat
	// ships.
	w.TransferLog().Append(rec)
	waitFor(t, 5*time.Second, "the worker's record on the master", func() bool {
		return len(c.Master.TransferLog().Since(0, "shape", 0).Entries) == 1
	})

	masterAddr := c.Master.HTTPAddr()
	workerAddr, err := w.ServeHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	const (
		docKeys      = "counts dropped entries evicted missed next"
		eventKeys    = "attrs message seq severity time_ns trace_id type"
		auditKeys    = "append_ns apply_ns bytes dst fsync_ns lock_wait_ns op path queue_ns result seq time_ns total_ns trace_id"
		transferKeys = "ack_wait_ns alloc_bytes block bytes dial_ns disk_ns forward_ns header_decode_ns header_encode_ns " +
			"net_ns op peer pool_hit result seq source span_id stall_ns throttle_wait_ns tier time_ns total_ns trace_id"
	)
	for _, ep := range []struct {
		name, url, filter string
		doc, entry        string
	}{
		{"master events", masterAddr + "/debug/events", "type", docKeys, eventKeys},
		{"master audit", masterAddr + "/debug/audit", "op", docKeys, auditKeys},
		{"master transfers", masterAddr + "/debug/transfers", "op", "conns " + docKeys, transferKeys},
		{"worker events", workerAddr + "/debug/events", "type", docKeys, eventKeys},
		{"worker transfers", workerAddr + "/debug/transfers", "op", "conns " + docKeys, transferKeys},
	} {
		t.Run(ep.name, func(t *testing.T) {
			get := func(query string) (int, []byte) {
				resp, err := http.Get("http://" + ep.url + query)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				body, _ := io.ReadAll(resp.Body)
				return resp.StatusCode, body
			}
			code, body := get("?" + ep.filter + "=shape")
			if code != http.StatusOK {
				t.Fatalf("status %d: %s", code, body)
			}
			keys, doc := jsonKeys(t, body)
			if keys != ep.doc {
				t.Errorf("document keys = %q, want %q", keys, ep.doc)
			}
			var list []json.RawMessage
			if err := json.Unmarshal(doc["entries"], &list); err != nil || len(list) != 1 {
				t.Fatalf("?%s=shape served %d entries (%v), want exactly the seeded one", ep.filter, len(list), err)
			}
			if keys, _ := jsonKeys(t, list[0]); keys != ep.entry {
				t.Errorf("record keys = %q, want %q", keys, ep.entry)
			}
			// An empty page still serves a list, never null.
			_, body = get("?" + ep.filter + "=no-such-key")
			if _, doc := jsonKeys(t, body); string(doc["entries"]) != "[]" {
				t.Errorf("empty page serves entries = %s, want []", doc["entries"])
			}
			for _, bad := range []string{"?since=bogus", "?limit=bogus"} {
				if code, _ := get(bad); code != http.StatusBadRequest {
					t.Errorf("GET %s = %d, want 400", bad, code)
				}
			}
		})
	}
}

// TestDebugExplainEndpoint pins the placement explanation document:
// its key set and one block's, a 400 without ?path and a 404 for a
// path the namespace does not hold, which the client reads as
// core.ErrNotFound.
func TestDebugExplainEndpoint(t *testing.T) {
	c := startTestCluster(t, func(cfg *ClusterConfig) { cfg.NumWorkers = 1 })
	fs, err := c.Client("")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if err := fs.WriteFile("/explained", randomBytes(1<<10, 5), core.ReplicationVectorFromFactor(1)); err != nil {
		t.Fatal(err)
	}
	get := func(query string) (int, []byte) {
		resp, err := http.Get("http://" + c.Master.HTTPAddr() + "/debug/explain" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}
	code, body := get("?path=/explained")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	keys, doc := jsonKeys(t, body)
	if keys != "Blocks Objectives Path" {
		t.Errorf("document keys = %q", keys)
	}
	var blocks []json.RawMessage
	if err := json.Unmarshal(doc["Blocks"], &blocks); err != nil || len(blocks) != 1 {
		t.Fatalf("%d blocks (%v), want 1", len(blocks), err)
	}
	if keys, _ := jsonKeys(t, blocks[0]); keys != "Block Heat Origin Replicas TimeNs TraceID" {
		t.Errorf("block keys = %q", keys)
	}
	if code, _ := get(""); code != http.StatusBadRequest {
		t.Errorf("no path: %d, want 400", code)
	}
	if code, _ := get("?path=/missing"); code != http.StatusNotFound {
		t.Errorf("unknown path: %d, want 404", code)
	}
	if _, err := fs.Explain("/missing"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("client Explain of an unknown path: %v, want ErrNotFound", err)
	}
}
