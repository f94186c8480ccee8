package integration

import (
	"bytes"
	"io"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rpc"
)

// TestMoverPromotesHotBlockEndToEnd is the tier-mover acceptance test:
// a block pinned to HDD that turns hot gains a memory replica chosen
// by the placement policy, the cold HDD source is retired once the
// copy confirms, the move is journaled with its before/after tier
// vectors, and both octopus-cli surfaces (explain, mover) can render
// why it happened. The data survives the move intact.
func TestMoverPromotesHotBlockEndToEnd(t *testing.T) {
	c := startTestCluster(t, func(cfg *ClusterConfig) {
		cfg.NumWorkers = 2
		cfg.SSDCapacity = 0 // promotions have exactly one destination tier
		cfg.MoverInterval = 100 * time.Millisecond
		cfg.MoverCooldown = time.Hour // one move per block, no oscillation
	})
	fs, err := c.Client("")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	data := randomBytes(256<<10, 7)
	if err := fs.WriteFile("/mover-hot", data, core.NewReplicationVector(0, 0, 1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		r, err := fs.Open("/mover-hot")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, r); err != nil {
			t.Fatal(err)
		}
		r.Close()
	}

	// Heat rides worker heartbeats (50ms), the mover passes every
	// 100ms, and the copy confirms via BlockReceived: within a few
	// seconds the only replica should sit in memory.
	waitFor(t, 10*time.Second, "hot block promoted to memory and HDD source retired", func() bool {
		blocks, err := fs.GetFileBlockLocations("/mover-hot", 0, -1)
		if err != nil || len(blocks) != 1 {
			return false
		}
		mem, hdd := 0, 0
		for _, loc := range blocks[0].Locations {
			switch loc.Tier {
			case core.TierMemory:
				mem++
			case core.TierHDD:
				hdd++
			}
		}
		return mem == 1 && hdd == 0
	})

	// The bytes are intact after copy-then-delete.
	got, err := fs.ReadFile("/mover-hot")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data corrupted by the tier move")
	}

	// The block converges to healthy against its (shifted) expectation:
	// the pin followed the replica from HDD to memory. A block report
	// generated before the source worker processed its delete can
	// transiently resurface the retired replica, so poll until the
	// excess-removal pass settles it.
	var f rpc.FsckFile
	waitFor(t, 10*time.Second, "post-move block fully healthy", func() bool {
		files, err := fs.Fsck("/mover-hot")
		if err != nil || len(files) != 1 {
			return false
		}
		f = files[0]
		return f.MissingReplicas == 0 && f.ExcessReplicas == 0 && f.HealthyBlocks == f.Blocks
	})
	if f.Expected.Tier(core.TierHDD) != 1 {
		t.Errorf("namespace vector = %v (the file-level pin is not rewritten by design)", f.Expected)
	}

	// The move is a first-class journal event with tier vectors.
	page, _, err := fs.Events(0, "block_moved", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Entries) != 1 {
		t.Fatalf("block_moved events = %d, want 1", len(page.Entries))
	}
	e := page.Entries[0]
	if e.Attrs["path"] != "/mover-hot" || e.Attrs["kind"] != rpc.MovePromote ||
		e.Attrs["before"] != "HDD:1" || e.Attrs["after"] != "MEMORY:1" {
		t.Errorf("block_moved attrs = %+v", e.Attrs)
	}
	if e.TraceID == "" {
		t.Error("block_moved event carries no trace ID")
	}

	// octopus-cli explain: the block's record now answers "why is this
	// in memory" with the promotion, not the original write.
	exp, err := fs.Explain("/mover-hot")
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Blocks) != 1 {
		t.Fatalf("explain blocks = %d, want 1", len(exp.Blocks))
	}
	be := exp.Blocks[0]
	if be.Origin != rpc.MovePromote || be.Heat <= 0 {
		t.Errorf("explain record = origin %q heat %.2f, want promote with heat", be.Origin, be.Heat)
	}
	if be.TraceID != e.TraceID {
		t.Errorf("explain trace %q != journal trace %q", be.TraceID, e.TraceID)
	}
	chosenMemory := false
	for _, rep := range be.Replicas {
		for _, cand := range rep.Candidates {
			if cand.Chosen && cand.Tier == core.TierMemory {
				chosenMemory = true
			}
		}
	}
	if !chosenMemory {
		t.Errorf("explain decision = %+v, want a chosen memory target", be.Replicas)
	}

	// octopus-cli mover: status reports the completed promotion.
	st, err := fs.Mover()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Enabled || st.Counters.Promoted != 1 || st.Counters.MovedBytes != int64(len(data)) {
		t.Errorf("mover status = enabled %v counters %+v", st.Enabled, st.Counters)
	}
	if len(st.Recent) != 1 {
		t.Fatalf("recent moves = %d, want 1", len(st.Recent))
	}
	rec := st.Recent[0]
	if rec.Path != "/mover-hot" || rec.Kind != rpc.MovePromote || rec.Outcome != rpc.MoveDone {
		t.Errorf("recent move = %+v", rec)
	}
	if rec.FromTier != core.TierHDD || rec.ToTier != core.TierMemory ||
		rec.AfterTiers[core.TierMemory] != 1 || rec.AfterTiers[core.TierHDD] != 0 {
		t.Errorf("recent move tiers = %+v", rec)
	}
}

// TestMoverCooldownPreventsThrash drives the oscillation scenario: a
// promoted block whose heat immediately collapses (short half-life)
// becomes cold-on-premium on the very next pass, but the per-block
// cooldown must hold the demotion back — one move, not a ping-pong.
func TestMoverCooldownPreventsThrash(t *testing.T) {
	c := startTestCluster(t, func(cfg *ClusterConfig) {
		cfg.NumWorkers = 2
		cfg.SSDCapacity = 0
		cfg.MoverInterval = 100 * time.Millisecond
		cfg.MoverCooldown = time.Hour
		cfg.HeatHalfLife = 300 * time.Millisecond // heat collapses right after the reads
	})
	fs, err := c.Client("")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	data := randomBytes(128<<10, 9)
	if err := fs.WriteFile("/flip", data, core.NewReplicationVector(0, 0, 1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		r, err := fs.Open("/flip")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, r); err != nil {
			t.Fatal(err)
		}
		r.Close()
	}
	waitFor(t, 10*time.Second, "hot block promoted", func() bool {
		page, _, err := fs.Events(0, "block_moved", 0)
		if err != nil {
			t.Fatal(err)
		}
		return len(page.Entries) >= 1
	})

	// Within a few half-lives the heat collapses below the cold cutoff
	// and the block turns cold-on-premium; the mover sees the finding
	// every pass but the cooldown must hold the demotion back.
	waitFor(t, 10*time.Second, "cold-on-premium finding held back by cooldown", func() bool {
		st, err := fs.Mover()
		if err != nil {
			t.Fatal(err)
		}
		return st.Counters.SkippedCooldown > 0
	})
	// More passes run; still exactly one move.
	time.Sleep(300 * time.Millisecond)
	page, _, err := fs.Events(0, "block_moved", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Entries) != 1 {
		t.Fatalf("block_moved events = %d, want exactly 1 (no thrash)", len(page.Entries))
	}
	blocks, err := fs.GetFileBlockLocations("/flip", 0, -1)
	if err != nil || len(blocks) != 1 {
		t.Fatalf("locations: %v", err)
	}
	for _, loc := range blocks[0].Locations {
		if loc.Tier != core.TierMemory {
			t.Errorf("replica drifted off memory during cooldown: %+v", loc)
		}
	}
	st, err := fs.Mover()
	if err != nil {
		t.Fatal(err)
	}
	if st.Counters.SkippedCooldown == 0 {
		t.Error("cooldown never held a move back despite the cold-on-premium finding")
	}
	if st.Counters.Demoted != 0 {
		t.Errorf("demotions = %d, want 0 under cooldown", st.Counters.Demoted)
	}
}
