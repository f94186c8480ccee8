package master

import (
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/trace"
	"repro/internal/xfer"
)

// TestHeartbeatDerivesWorkerSpans folds one heartbeat of four records —
// a traced write with a parent, a traced read that failed, a traced
// replicate with no parent and an untraced read — and reads the trace
// back from /debug/traces/<id>: exactly one worker.<op> span per traced
// record, built from the record alone, and none for the untraced one.
// Folding the same beat again serves each span once.
func TestHeartbeatDerivesWorkerSpans(t *testing.T) {
	m := testMaster(t, func(c *Config) { c.SlowOpThreshold = time.Nanosecond })
	registerFakeWorker(t, m, "w1", "/r1", mediaStat("w1:ssd0", core.TierSSD, 1<<30, 300, 400))
	addr, err := m.ServeHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const id = "feedfacefeedface"
	now := time.Now().UnixNano()
	recs := []xfer.Record{
		{Time: now, Op: "write", Source: "worker:w1", Block: 7, Tier: "SSD", TraceID: id,
			SpanID: "000000000000000a", ParentID: "00000000000000c1", Result: "ok", Bytes: 4096,
			NetNs: 10, DiskNs: 20, ForwardNs: 30, AckWaitNs: 40, TotalNs: 500, PoolHit: true},
		{Time: now + 1000, Op: "read", Source: "worker:w1", Block: 8, Tier: "SSD", TraceID: id,
			SpanID: "000000000000000b", ParentID: "00000000000000c2", Result: "E_CORRUPT: chunk 0",
			HeaderDecodeNs: 5, DiskNs: 6, TotalNs: 300},
		{Time: now + 2000, Op: "replicate", Source: "worker:w1", Block: 9, Tier: "SSD", TraceID: id,
			SpanID: "000000000000000c", Result: "ok", Bytes: 8192, DialNs: 7, ThrottleWaitNs: 8, TotalNs: 900},
		{Time: now + 3000, Op: "read", Source: "worker:w1", Block: 10, Tier: "SSD", Result: "ok", Bytes: 1, TotalNs: 100},
	}
	want := []struct {
		op, parent, err, keys string
	}{
		{"worker.write", "00000000000000c1", "", "ack_wait_ns block bytes disk_ns forward_ns net_ns pool_hit tier worker"},
		{"worker.read", "00000000000000c2", "E_CORRUPT: chunk 0", "block bytes disk_ns header_decode_ns tier worker"},
		{"worker.replicate", "", "", "block bytes dial_ns throttle_wait_ns tier worker"},
	}
	for pass := 1; pass <= 2; pass++ {
		beat(t, m, &rpc.HeartbeatArgs{ID: "w1", Transfers: slices.Clone(recs)})
		var spans []trace.Span
		if code := getJSON(t, "http://"+addr+"/debug/traces/"+id, &spans); code != 200 {
			t.Fatalf("pass %d: /debug/traces/%s = %d", pass, id, code)
		}
		if len(spans) != len(want) {
			t.Fatalf("pass %d: %d spans served, want %d: %+v", pass, len(spans), len(want), spans)
		}
		for i, sp := range spans {
			r, w := recs[i], want[i]
			keys := make([]string, 0, len(sp.Attrs))
			for k := range sp.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if sp.Op != w.op || sp.Service != "worker" || sp.TraceID != id || sp.SpanID != r.SpanID ||
				sp.ParentID != w.parent || sp.Error != w.err || sp.Start != r.Time-r.TotalNs || sp.End != r.Time {
				t.Errorf("pass %d: span %d = %+v, want %s of record %+v", pass, i, sp, w.op, r)
			}
			if got := strings.Join(keys, " "); got != w.keys {
				t.Errorf("pass %d: %s attribute keys = %q, want %q", pass, w.op, got, w.keys)
			}
			if sp.Attrs["worker"] != "w1" || sp.Attrs["tier"] != "SSD" {
				t.Errorf("pass %d: %s attrs = %v, want worker w1 on SSD", pass, w.op, sp.Attrs)
			}
		}
		if n := len(m.traces.List()); n != 1 {
			t.Errorf("pass %d: the store holds %d traces, want only %s", pass, n, id)
		}
		if got := m.TransferLog().Since(0, "", 0).Entries; len(got) != pass*len(recs) {
			t.Errorf("pass %d: %d records filed, want %d", pass, len(got), pass*len(recs))
		}
	}
	// The derived span carries the record's values, not only its keys.
	sp := recs[0].Span("w1")
	if wantAttrs := map[string]string{"worker": "w1", "block": "7", "tier": "SSD", "bytes": "4096",
		"net_ns": "10", "disk_ns": "20", "forward_ns": "30", "ack_wait_ns": "40", "pool_hit": "1"}; !reflect.DeepEqual(sp.Attrs, wantAttrs) {
		t.Errorf("write span attrs = %v, want %v", sp.Attrs, wantAttrs)
	}
}
