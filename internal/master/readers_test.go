package master

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/heat"
	"repro/internal/trace"
	"repro/internal/xfer"
)

// readerClient serves m's HTTP endpoints and dials a client to it.
func readerClient(t *testing.T, m *Master) *client.FileSystem {
	t.Helper()
	if _, err := m.ServeHTTP("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	fs, err := client.Dial(m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return fs
}

// same fails the test unless what the client read equals what the
// master holds.
func same(t *testing.T, what string, got, want any) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s read over HTTP differs from the master's:\n got %+v\nwant %+v", what, got, want)
	}
}

// TestHTTPReadersMatchMaster reads every observability document through
// the client's fetchers, which GET the master's HTTP endpoints, and
// checks each equals the master's in-process value.
func TestHTTPReadersMatchMaster(t *testing.T) {
	m := testMaster(t, func(c *Config) { c.SlowOpThreshold = time.Nanosecond }) // keep every trace
	registerFakeWorker(t, m, "w1", "/r1",
		mediaStat("w1:mem0", core.TierMemory, 1<<30, 1000, 2000),
		mediaStat("w1:hdd0", core.TierHDD, 4<<30, 120, 170))
	hot := heatTestBlock(t, m, "/hot", "w1", "w1:hdd0")
	// Heat stamped in the future does not decay before it is read, so
	// the two reads agree to the bit.
	future := time.Now().Add(time.Hour).UnixNano()
	m.heat.blocks.Add(hot, heat.Read, 7, 7<<20, future)
	info, err := m.ns.Status("/hot")
	if err != nil {
		t.Fatal(err)
	}
	m.heat.files.Add(info.ID, heat.Read, 7, 7<<20, future)
	m.traces.Add(trace.Span{TraceID: "cafecafecafecafe", SpanID: "0123456789abcdef", Service: "client",
		Op: "read", Start: 1, End: 2, Error: "e", Attrs: map[string]string{"k": "v"}})
	m.xfers.Append(xfer.Record{Op: "read", Source: "client", Block: uint64(hot), Tier: "HDD", Bytes: 1,
		TraceID: "cafecafecafecafe", TotalNs: 9, PoolHit: true})
	m.sampleHistory()
	m.sampleHistory()
	fs := readerClient(t, m)

	evPage, evCounts, err := fs.Events(0, "", 0)
	if err != nil || len(evPage.Entries) == 0 {
		t.Fatalf("events: %d read, %v", len(evPage.Entries), err)
	}
	same(t, "events", evPage, m.journal.Log().Since(0, "", 0))
	same(t, "event counts", evCounts, m.journal.Log().Counts())

	auPage, auCounts, err := fs.Audit(0, "create", 5)
	if err != nil || len(auPage.Entries) != 1 {
		t.Fatalf("audit: %d creates read, %v; want 1", len(auPage.Entries), err)
	}
	same(t, "audit", auPage, m.audit.Since(0, "create", 5))
	same(t, "audit counts", auCounts, m.audit.Counts())

	xfPage, xfCounts, err := fs.Transfers(0, "read", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(xfPage.Entries) != 1 {
		t.Fatalf("transfers: %d records, want 1", len(xfPage.Entries))
	}
	same(t, "transfers", xfPage, m.xfers.Since(0, "read", 0))
	same(t, "transfer counts", xfCounts, m.xfers.Counts())

	spans, err := fs.Trace("cafecafecafecafe")
	if err != nil {
		t.Fatal(err)
	}
	same(t, "trace", spans, trace.Merge(m.traces.Get("cafecafecafecafe")))

	samples, err := fs.ClusterHistory(0)
	if err != nil {
		t.Fatal(err)
	}
	want := m.clusterHistory(0)
	if len(samples) != 3 || len(want) != 3 {
		t.Fatalf("history: %d samples read, %d held, want 3", len(samples), len(want))
	}
	// The last sample is taken live on each read.
	samples[2].TimeNs, want[2].TimeNs = 0, 0
	same(t, "cluster history", samples, want)

	doc, err := fs.Explain("/hot")
	if err != nil {
		t.Fatal(err)
	}
	wantDoc, err := m.explain("/hot")
	if err != nil || len(wantDoc.Blocks) != 1 {
		t.Fatalf("explain held: %d blocks, %v", len(wantDoc.Blocks), err)
	}
	same(t, "explain", doc, wantDoc)

	for _, q := range []struct {
		top       int
		file      string
		misplaced bool
	}{{0, "", false}, {1, "/hot", false}, {0, "", true}} {
		report, err := fs.Heat(q.top, q.file, q.misplaced)
		if err != nil {
			t.Fatal(err)
		}
		wantReport := m.heatReport(q.top, q.file, q.misplaced)
		if !q.misplaced && len(wantReport.Blocks) != 1 {
			t.Fatalf("heat %+v held: %d blocks, want 1", q, len(wantReport.Blocks))
		}
		report.TimeNs, wantReport.TimeNs = 0, 0
		same(t, fmt.Sprintf("heat %+v", q), report, wantReport)
	}

	status, err := fs.Mover()
	if err != nil {
		t.Fatal(err)
	}
	same(t, "mover", status, m.moverStatus())
}

// TestHTTPReaderAuditHasNoDefaultCap: a limit of 0 reads every retained
// entry, not the endpoint's default page of 1,000.
func TestHTTPReaderAuditHasNoDefaultCap(t *testing.T) {
	m := testMaster(t)
	for i := 0; i < 1500; i++ {
		m.audit.Append(audit.Entry{Op: "create", Path: fmt.Sprintf("/f%d", i), Result: "ok"})
	}
	page, _, err := readerClient(t, m).Audit(0, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Entries) != 1500 {
		t.Fatalf("Audit(0, \"\", 0) read %d entries, want all 1500", len(page.Entries))
	}
}

// TestHTTPReaderErrors: an unknown file or trace is core.ErrNotFound,
// and a master without an HTTP endpoint gives an error that names the
// flag to start it with.
func TestHTTPReaderErrors(t *testing.T) {
	fs := readerClient(t, testMaster(t))
	if _, err := fs.Explain("/missing"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("Explain of an unknown path: %v, want ErrNotFound", err)
	}
	if _, err := fs.Trace("feedfeedfeedfeed"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("Trace of an unretained trace: %v, want ErrNotFound", err)
	}

	bare, err := client.Dial(testMaster(t).Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if _, _, err := bare.Events(0, "", 0); err == nil || !strings.Contains(err.Error(), "-http") {
		t.Errorf("Events from a master without HTTP: %v, want an error naming -http", err)
	}
	if _, err := bare.ClusterReport(); err != nil {
		t.Errorf("ClusterReport needs no HTTP endpoint: %v", err)
	}
}
