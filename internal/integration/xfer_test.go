package integration

import (
	"bytes"
	"io"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/xfer"
)

// TestTransferFlightRecorder is the acceptance test for the data-path
// flight recorder: it writes and reads a multi-block file on a
// 3-worker cluster, then asserts via the master's /debug/transfers that every
// daemon's transfers reached the master with a coherent phase breakdown —
// phases sum to no more than the wall time — and that each record
// joins the request's trace (its span ID appears in the assembled
// timeline "octopus-cli trace" renders).
func TestTransferFlightRecorder(t *testing.T) {
	c := startTestCluster(t, func(cfg *ClusterConfig) {
		cfg.NumWorkers = 3
		cfg.NumRacks = 1
		cfg.BlockSize = 1 << 20
	})
	fs, err := c.Client("", client.WithReadahead(2), client.WithWriteWindow(1))
	if err != nil {
		t.Fatalf("Client: %v", err)
	}
	defer fs.Close()

	data := randomBytes(3<<20, 23)
	w, err := fs.Create("/xfer.bin", client.CreateOptions{
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

	r, err := fs.Open("/xfer.bin")
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

	// Worker-side records land after the client has its bytes and reach
	// the master on the worker's next heartbeat, and the client ships
	// its own records on Reader.Close/Writer.Close, so poll the master's
	// log until both requests are fully represented.
	var all []xfer.Record
	waitFor(t, 5*time.Second, "transfer records from every side", func() bool {
		page, _, err := fs.Transfers(0, "", 0)
		if err != nil {
			return false
		}
		all = page.Entries
		var clientWrites, clientReads, workerWrites, workerReads int
		for _, rec := range all {
			switch {
			case rec.Source == "client" && rec.Op == "write":
				clientWrites++
			case rec.Source == "client" && rec.Op == "read":
				clientReads++
			case rec.Source != "client" && rec.Op == "write":
				workerWrites++
			case rec.Source != "client" && rec.Op == "read":
				workerReads++
			}
		}
		// 3 blocks at 2 replicas: 3 client writes, 6 worker writes
		// (pipeline hops), 3 client reads, 3 worker reads.
		return clientWrites >= 3 && clientReads >= 3 && workerWrites >= 6 && workerReads >= 3
	})

	for _, rec := range all {
		checkRecord(t, rec)
	}

	// The records must join the traces the requests produced: every
	// write-path record carries the write request's trace ID, and a
	// worker record's span appears in the assembled timeline.
	assertJoined(t, fs, all, writeID, "write")
	assertJoined(t, fs, all, readID, "read")
}

// TestTelemetryOutlivesWorker: workers push their spans and transfer
// records on the heartbeat, so after a worker that served a read dies,
// the master still answers for its side of that read.
func TestTelemetryOutlivesWorker(t *testing.T) {
	c := startTestCluster(t, func(cfg *ClusterConfig) {
		cfg.NumWorkers = 3
		cfg.NumRacks = 1
		cfg.BlockSize = 1 << 20
	})
	fs, err := c.Client("")
	if err != nil {
		t.Fatalf("Client: %v", err)
	}
	defer fs.Close()

	data := randomBytes(3<<20, 29)
	if err := fs.WriteFile("/outlive.bin", data, core.ReplicationVectorFromFactor(2)); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	r, err := fs.Open("/outlive.bin")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	readID := r.ReqID()
	if _, err := io.ReadAll(r); err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	r.Close()

	// served reports whether the master answers for worker id's side of
	// the read: a worker.read span and a read record, both its own.
	served := func(id string) (span, rec bool) {
		if spans, err := fs.Trace(readID); err == nil {
			for _, sp := range spans {
				span = span || (sp.Op == "worker.read" && sp.Attrs["worker"] == id)
			}
		}
		if page, _, err := fs.Transfers(0, "read", 0); err == nil {
			for _, r := range page.Entries {
				rec = rec || (r.TraceID == readID && r.Source == "worker:"+id)
			}
		}
		return span, rec
	}
	var victim int
	waitFor(t, 5*time.Second, "a worker's side of the read on the master", func() bool {
		for i, w := range c.Workers {
			if span, rec := served(string(w.ID())); span && rec {
				victim = i
				return true
			}
		}
		return false
	})

	id := string(c.Workers[victim].ID())
	if err := c.KillWorker(victim); err != nil {
		t.Fatalf("KillWorker: %v", err)
	}
	if span, rec := served(id); !span || !rec {
		t.Errorf("after %s closed: its worker.read span served %v, its read record served %v; want both", id, span, rec)
	}
}

// checkRecord asserts the per-record invariants: identity fields set,
// a wall time, and serially measured phases that sum to no more than
// that wall time.
func checkRecord(t *testing.T, rec xfer.Record) {
	t.Helper()
	if rec.Op == "" || rec.Source == "" || rec.Block == 0 {
		t.Errorf("record missing identity: %+v", rec)
	}
	if rec.Result != "ok" {
		t.Errorf("%s %s of block %d: result %q", rec.Source, rec.Op, rec.Block, rec.Result)
	}
	if rec.TraceID == "" || rec.SpanID == "" {
		t.Errorf("%s %s of block %d not joined to a trace/span", rec.Source, rec.Op, rec.Block)
	}
	if rec.TotalNs <= 0 {
		t.Errorf("%s %s of block %d: TotalNs = %d", rec.Source, rec.Op, rec.Block, rec.TotalNs)
	}
	if sum := rec.PhaseSumNs(); sum > rec.TotalNs {
		t.Errorf("%s %s of block %d: phases sum to %d > wall %d",
			rec.Source, rec.Op, rec.Block, sum, rec.TotalNs)
	}
	if rec.Bytes <= 0 {
		t.Errorf("%s %s of block %d: Bytes = %d", rec.Source, rec.Op, rec.Block, rec.Bytes)
	}

	// Phase completeness per vantage point: each side must populate
	// the phases that exist on its side of the wire.
	switch {
	case rec.Source == "client" && rec.Op == "write":
		if rec.DialNs <= 0 || rec.HeaderEncodeNs <= 0 || rec.NetNs <= 0 || rec.AckWaitNs <= 0 {
			t.Errorf("client write of block %d missing phases: dial=%d enc=%d net=%d ack=%d",
				rec.Block, rec.DialNs, rec.HeaderEncodeNs, rec.NetNs, rec.AckWaitNs)
		}
	case rec.Source == "client" && rec.Op == "read":
		// A prefetched read carries stall instead of dial/decode (the
		// open ran in the background); both kinds must show net time.
		if rec.NetNs <= 0 {
			t.Errorf("client read of block %d: NetNs = %d", rec.Block, rec.NetNs)
		}
		if rec.DialNs <= 0 && rec.StallNs <= 0 {
			t.Errorf("client read of block %d has neither dial nor prefetch stall", rec.Block)
		}
	case rec.Op == "write": // worker vantage
		if rec.HeaderDecodeNs <= 0 || rec.DiskNs <= 0 || rec.NetNs <= 0 {
			t.Errorf("worker write of block %d missing phases: dec=%d disk=%d net=%d",
				rec.Block, rec.HeaderDecodeNs, rec.DiskNs, rec.NetNs)
		}
		if rec.Tier == "" {
			t.Errorf("worker write of block %d has no tier", rec.Block)
		}
	case rec.Op == "read": // worker vantage
		if rec.HeaderDecodeNs <= 0 || rec.DiskNs <= 0 || rec.NetNs <= 0 {
			t.Errorf("worker read of block %d missing phases: dec=%d disk=%d net=%d",
				rec.Block, rec.HeaderDecodeNs, rec.DiskNs, rec.NetNs)
		}
	}
}

// assertJoined checks the record↔trace join for one request: records
// with the request's trace ID exist on both the client and worker
// sides, and at least one worker record's span ID appears in the
// assembled timeline (the view "octopus-cli trace <req-id>" renders).
func assertJoined(t *testing.T, fs *client.FileSystem, all []xfer.Record, reqID, op string) {
	t.Helper()
	var clientRecs, workerRecs []xfer.Record
	for _, rec := range all {
		if rec.TraceID != reqID || rec.Op != op {
			continue
		}
		if rec.Source == "client" {
			clientRecs = append(clientRecs, rec)
		} else {
			workerRecs = append(workerRecs, rec)
		}
	}
	if len(clientRecs) == 0 || len(workerRecs) == 0 {
		t.Fatalf("trace %s: client records = %d, worker records = %d, want both sides",
			reqID, len(clientRecs), len(workerRecs))
	}

	spans, err := fs.Trace(reqID)
	if err != nil {
		t.Fatalf("Trace(%s): %v", reqID, err)
	}
	spanIDs := map[string]bool{}
	for _, sp := range spans {
		spanIDs[sp.SpanID] = true
	}
	joined := 0
	for _, rec := range workerRecs {
		if spanIDs[rec.SpanID] {
			joined++
		}
	}
	if joined == 0 {
		t.Errorf("trace %s: no worker %s record's span ID appears in the assembled timeline", reqID, op)
	}
}
