package integration

import (
	"bytes"
	"io"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/trace"
)

// traceIndex groups assembled spans by span ID and by op name.
type traceIndex struct {
	byID map[string]trace.Span
	byOp map[string][]trace.Span
}

func indexSpans(spans []trace.Span) traceIndex {
	idx := traceIndex{byID: make(map[string]trace.Span), byOp: make(map[string][]trace.Span)}
	for _, sp := range spans {
		idx.byID[sp.SpanID] = sp
		idx.byOp[sp.Op] = append(idx.byOp[sp.Op], sp)
	}
	return idx
}

// TestTraceTimelineAcrossDaemons writes and reads a multi-block file
// with readahead on a 3-worker cluster, then fetches the timelines
// from the master, which every daemon pushes to, and asserts that client,
// master, and at least two distinct workers contributed spans sharing
// the request's trace ID with intact parent/child links.
func TestTraceTimelineAcrossDaemons(t *testing.T) {
	c := startTestCluster(t, func(cfg *ClusterConfig) {
		cfg.NumWorkers = 3
		cfg.NumRacks = 1
		cfg.BlockSize = 1 << 20
		// The default zero SlowOpThreshold marks every trace slow, so
		// stores retain everything regardless of the sampling rate.
	})
	fs, err := c.Client("", client.WithReadahead(2), client.WithWriteWindow(1))
	if err != nil {
		t.Fatalf("Client: %v", err)
	}
	defer fs.Close()

	data := randomBytes(3<<20, 7)
	w, err := fs.Create("/traced.bin", client.CreateOptions{
		RepVector: core.ReplicationVectorFromFactor(2),
	})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	writeID := w.ReqID()
	if _, err := w.Write(data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r, err := fs.Open("/traced.bin")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	readID := r.ReqID()
	got := make([]byte, len(data))
	if _, err := io.ReadFull(r, got); err != nil {
		t.Fatalf("ReadFull: %v", err)
	}
	r.Close()
	if !bytes.Equal(got, data) {
		t.Fatal("read-back mismatch")
	}

	// Worker read/replicate spans are recorded after the client has its
	// bytes, so poll the assembled trace until the cross-daemon picture
	// is complete.
	assertTimeline(t, fs, writeID, "client.write", "worker.write", 2)
	assertTimeline(t, fs, readID, "client.open", "worker.read", 1)
}

// assertTimeline polls the assembled trace for reqID until it contains
// the client root, a master span, and wantWorkers distinct workers'
// daemonOp spans, then verifies trace-ID consistency and parent links.
func assertTimeline(t *testing.T, fs *client.FileSystem, reqID, rootOp, daemonOp string, wantWorkers int) {
	t.Helper()
	var spans []trace.Span
	waitFor(t, 5*time.Second, rootOp+" timeline for "+reqID, func() bool {
		var err error
		spans, err = fs.Trace(reqID)
		if err != nil {
			return false
		}
		idx := indexSpans(spans)
		return len(idx.byOp[rootOp]) > 0 && distinctWorkers(idx.byOp[daemonOp]) >= wantWorkers
	})
	idx := indexSpans(spans)

	services := map[string]bool{}
	for _, sp := range spans {
		if sp.TraceID != reqID {
			t.Errorf("span %s/%s has trace ID %s, want %s", sp.Service, sp.Op, sp.TraceID, reqID)
		}
		if sp.End < sp.Start {
			t.Errorf("span %s/%s ends before it starts", sp.Service, sp.Op)
		}
		services[sp.Service] = true
	}
	for _, svc := range []string{"client", "master", "worker"} {
		if !services[svc] {
			t.Errorf("no %s spans in timeline %s", svc, reqID)
		}
	}

	root := idx.byOp[rootOp][0]
	if root.ParentID != "" {
		t.Errorf("root span %s has parent %s", rootOp, root.ParentID)
	}
	// Every worker span must link to a live client-side parent: the
	// span ID propagated over the transfer header survived the hop.
	linked := 0
	for _, sp := range idx.byOp[daemonOp] {
		parent, ok := idx.byID[sp.ParentID]
		if !ok {
			continue
		}
		if parent.Service != "client" && parent.Service != "worker" {
			t.Errorf("%s span parented by %s/%s", daemonOp, parent.Service, parent.Op)
		}
		linked++
	}
	if linked == 0 {
		t.Errorf("no %s span is linked to a parent span", daemonOp)
	}
	// Master handler spans hang off client RPC spans (internal master
	// spans like master.placement hang off their handler instead).
	for _, sp := range spans {
		if sp.Service != "master" || sp.ParentID == "" {
			continue
		}
		parent, ok := idx.byID[sp.ParentID]
		if ok && parent.Service != "client" && parent.Service != "master" {
			t.Errorf("master span %s parented by %s/%s", sp.Op, parent.Service, parent.Op)
		}
	}
}

func distinctWorkers(spans []trace.Span) int {
	workers := map[string]bool{}
	for _, sp := range spans {
		workers[sp.Attrs["worker"]] = true
	}
	return len(workers)
}

// TestTraceReadahead asserts that a readahead-driven read records
// prefetch spans and that the worker reads they trigger parent to
// them, making the hidden background opens visible in the timeline.
func TestTraceReadahead(t *testing.T) {
	c := startTestCluster(t, func(cfg *ClusterConfig) {
		cfg.NumWorkers = 3
		cfg.NumRacks = 1
		cfg.BlockSize = 1 << 20
	})
	fs, err := c.Client("", client.WithReadahead(2))
	if err != nil {
		t.Fatalf("Client: %v", err)
	}
	defer fs.Close()

	data := randomBytes(3<<20, 11)
	if err := fs.WriteFile("/ra.bin", data, core.ReplicationVectorFromFactor(2)); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	r, err := fs.Open("/ra.bin")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	reqID := r.ReqID()
	if _, err := io.ReadAll(r); err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	r.Close()

	waitFor(t, 5*time.Second, "prefetch spans", func() bool {
		spans, err := fs.Trace(reqID)
		if err != nil {
			return false
		}
		idx := indexSpans(spans)
		if len(idx.byOp["client.prefetch"]) == 0 {
			return false
		}
		// At least one worker.read must be the child of a prefetch span.
		for _, sp := range idx.byOp["worker.read"] {
			if parent, ok := idx.byID[sp.ParentID]; ok && parent.Op == "client.prefetch" {
				return true
			}
		}
		return false
	})
}
