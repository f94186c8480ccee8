package integration

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/events"
)

// firstSeq returns the sequence number of the first event of a type in
// a page, or 0 if absent.
func firstSeq(evs []events.Event, typ string) uint64 {
	for _, e := range evs {
		if e.Type == typ {
			return e.Seq
		}
	}
	return 0
}

// TestEventJournalCausalOrder is the journal's end-to-end acceptance
// test: write a file, kill a worker holding a replica, and check the
// cluster's life story reads back in causal order — registration before
// allocation, allocation before commit, commit before the expiry of the
// killed worker, expiry before re-replication — with strictly monotonic
// sequence numbers.
func TestEventJournalCausalOrder(t *testing.T) {
	c := startTestCluster(t, func(cfg *ClusterConfig) {
		cfg.NumWorkers = 3
		cfg.WorkerTimeout = 300 * time.Millisecond
	})
	fs, err := c.Client("")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	data := randomBytes(1<<20, 17)
	if err := fs.WriteFile("/journal.bin", data, core.NewReplicationVector(0, 0, 2, 0, 0)); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	// Kill a worker that holds a replica so the monitor must expire it
	// and re-replicate the block elsewhere.
	locs, err := fs.GetFileBlockLocations("/journal.bin", 0, int64(len(data)))
	if err != nil || len(locs) == 0 || len(locs[0].Locations) == 0 {
		t.Fatalf("GetFileBlockLocations: %v (%d blocks)", err, len(locs))
	}
	victim := locs[0].Locations[0].Worker
	idx := c.workerIndex(victim)
	if idx < 0 {
		t.Fatalf("unknown worker %s", victim)
	}
	if err := c.KillWorker(idx); err != nil {
		t.Fatal(err)
	}

	// Wait until the journal records both the expiry and a
	// re-replication.
	waitFor(t, 10*time.Second, "expiry and re-replication events", func() bool {
		page, _, err := fs.Events(0, "", 0)
		if err != nil {
			return false
		}
		return firstSeq(page.Entries, "worker_expired") > 0 &&
			firstSeq(page.Entries, "block_rereplicated") > 0
	})

	page, counts, err := fs.Events(0, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	evs := page.Entries
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("seqs not strictly monotonic: %d after %d", evs[i].Seq, evs[i-1].Seq)
		}
	}

	register := firstSeq(evs, "worker_register")
	allocated := firstSeq(evs, "block_allocated")
	committed := firstSeq(evs, "block_committed")
	expired := firstSeq(evs, "worker_expired")
	rereplicated := firstSeq(evs, "block_rereplicated")
	for name, seq := range map[string]uint64{
		"worker_register": register, "block_allocated": allocated,
		"block_committed": committed, "worker_expired": expired,
		"block_rereplicated": rereplicated,
	} {
		if seq == 0 {
			t.Fatalf("journal has no %s event; counts = %v", name, counts)
		}
	}
	if !(register < allocated && allocated < committed && committed < expired && expired < rereplicated) {
		t.Fatalf("causal order violated: register=%d allocated=%d committed=%d expired=%d rereplicated=%d",
			register, allocated, committed, expired, rereplicated)
	}
	if counts["worker_register"] != 3 {
		t.Errorf("counts[worker_register] = %d, want 3", counts["worker_register"])
	}

	// The expiry event names the worker that was killed.
	expPage, _, err := fs.Events(0, "worker_expired", 0)
	if err != nil || len(expPage.Entries) == 0 {
		t.Fatalf("fetching worker_expired events: %v", err)
	}
	if got := expPage.Entries[0].Attrs["worker"]; got != string(victim) {
		t.Errorf("expiry attributes name worker %q, want %q", got, victim)
	}

	// Cursoring: resuming from the last delivered cursor returns only
	// events published afterwards.
	c.Master.Journal().Publish(events.Info, "cursor_probe", "after the fact")
	tail, _, err := fs.Events(page.Next, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tail.Entries {
		if e.Seq <= page.Next {
			t.Fatalf("cursor re-delivered seq %d (cursor %d)", e.Seq, page.Next)
		}
	}
	if firstSeq(tail.Entries, "cursor_probe") == 0 {
		t.Error("cursor page missing the freshly published event")
	}
}

// TestExplainEveryReplica is the explainability acceptance test: after
// a write, /debug/explain must account for every replica of every block
// with the winning (worker, tier), its four-objective score vector, and
// at least one rejected candidate's scores.
func TestExplainEveryReplica(t *testing.T) {
	c := startTestCluster(t, func(cfg *ClusterConfig) { cfg.NumWorkers = 4 })
	fs, err := c.Client("")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	data := randomBytes(6<<20, 19) // two blocks at the 4 MB default
	rv := core.NewReplicationVector(0, 1, 2, 0, 0)
	if err := fs.WriteFile("/explain.bin", data, rv); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	reply, err := fs.Explain("/explain.bin")
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Blocks) != 2 {
		t.Fatalf("explained %d blocks, want 2", len(reply.Blocks))
	}
	for _, name := range reply.Objectives {
		if name == "" {
			t.Fatalf("objective names incomplete: %v", reply.Objectives)
		}
	}

	locs, err := fs.GetFileBlockLocations("/explain.bin", 0, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	locByBlock := map[core.BlockID]map[core.WorkerID]bool{}
	for _, lb := range locs {
		set := map[core.WorkerID]bool{}
		for _, l := range lb.Locations {
			set[l.Worker] = true
		}
		locByBlock[lb.Block.ID] = set
	}

	for _, be := range reply.Blocks {
		if len(be.Replicas) != 3 {
			t.Fatalf("block %d explains %d replicas, want 3", be.Block, len(be.Replicas))
		}
		if be.TraceID == "" {
			t.Errorf("block %d explanation carries no trace ID", be.Block)
		}
		for i, re := range be.Replicas {
			if len(re.Candidates) < 2 {
				t.Fatalf("block %d replica %d has %d candidates, want the winner plus >= 1 rejected",
					be.Block, i, len(re.Candidates))
			}
			win := re.Candidates[0]
			if !win.Chosen {
				t.Fatalf("block %d replica %d first candidate not marked chosen", be.Block, i)
			}
			if win.Worker == "" || win.Tier.String() == "" {
				t.Fatalf("block %d replica %d winner missing identity: %+v", be.Block, i, win)
			}
			if !locByBlock[be.Block][win.Worker] {
				t.Errorf("block %d replica %d chose %s but no replica lives there",
					be.Block, i, win.Worker)
			}
			zero := [4]float64{}
			if win.Objectives == zero {
				t.Errorf("block %d replica %d winner has an all-zero objective vector", be.Block, i)
			}
			for k, cand := range re.Candidates {
				if cand.Chosen != (k == 0) {
					t.Errorf("block %d replica %d candidate %d chosen flag wrong", be.Block, i, k)
				}
				if k > 0 && cand.Score < re.Candidates[k-1].Score {
					t.Errorf("block %d replica %d candidates not sorted by score", be.Block, i)
				}
			}
			if re.Considered < len(re.Candidates) {
				t.Errorf("block %d replica %d considered %d < retained %d",
					be.Block, i, re.Considered, len(re.Candidates))
			}
		}
	}

	// The per-block placement event carries the chosen-vs-runner-up
	// summary for the CLI's text view.
	pl, _, err := fs.Events(0, "placement", 0)
	if err != nil || len(pl.Entries) < 2 {
		t.Fatalf("placement events: %v (%d)", err, len(pl.Entries))
	}
	if pl.Entries[0].Attrs["replica0.chosen"] == "" || pl.Entries[0].Attrs["replica0.runner_up"] == "" {
		t.Errorf("placement event lacks chosen/runner-up attrs: %v", pl.Entries[0].Attrs)
	}
}

// TestClusterHistorySampling checks the telemetry ring accumulates
// samples at the configured cadence and serves them oldest-first with a
// live sample at the end.
func TestClusterHistorySampling(t *testing.T) {
	c := startTestCluster(t, func(cfg *ClusterConfig) {
		cfg.NumWorkers = 2
		cfg.HistoryInterval = 60 * time.Millisecond
	})
	fs, err := c.Client("")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	waitFor(t, 10*time.Second, "history samples to accumulate", func() bool {
		samples, err := fs.ClusterHistory(0)
		return err == nil && len(samples) >= 4
	})
	samples, err := fs.ClusterHistory(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].TimeNs < samples[i-1].TimeNs {
			t.Fatalf("samples out of order at %d", i)
		}
	}
	live := samples[len(samples)-1]
	if len(live.Workers) != 2 {
		t.Fatalf("live sample has %d workers, want 2", len(live.Workers))
	}
	if live.Workers[0].ID >= live.Workers[1].ID {
		t.Errorf("workers not sorted: %s, %s", live.Workers[0].ID, live.Workers[1].ID)
	}
	if live.Workers[0].Capacity == 0 {
		t.Error("live sample reports zero capacity")
	}

	if trimmed, err := fs.ClusterHistory(2); err != nil || len(trimmed) != 2 {
		t.Errorf("ClusterHistory(2) = %d samples, %v; want 2", len(trimmed), err)
	}
}
