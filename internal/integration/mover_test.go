package integration

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/events"
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
	// 100ms, and the copy confirms on the heartbeat it wakes: within a
	// few seconds the only replica should sit in memory.
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

	// The block is healthy against its (shifted) expectation from the
	// instant the copy confirmed: the pin followed the replica from HDD
	// to memory in the same step, and no stale block report can bring
	// the retired HDD replica back.
	files, err := fs.Fsck("/mover-hot")
	if err != nil || len(files) != 1 {
		t.Fatalf("fsck = %+v, %v", files, err)
	}
	if f := files[0]; f.MissingReplicas != 0 || f.ExcessReplicas != 0 || f.HealthyBlocks != f.Blocks {
		t.Errorf("post-move block not healthy: %+v", f)
	} else if f.Expected.Tier(core.TierHDD) != 1 {
		t.Errorf("namespace vector = %v (the file-level pin is not rewritten by design)", f.Expected)
	}

	// The move is a first-class journal event with tier vectors; the
	// mover journals it on its first pass after the confirmation.
	var page events.Page
	waitFor(t, 10*time.Second, "block_moved journaled", func() bool {
		page, _, err = fs.Events(0, "block_moved", 0)
		if err != nil {
			t.Fatal(err)
		}
		return len(page.Entries) > 0
	})
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

// TestMoverSoak runs the mover flat out under a shifting Zipf read load
// on single-replica files — the set-up in which a stale block report
// used to cost a block its last replica — and then checks that every
// byte is still there and the block map agrees with itself.
func TestMoverSoak(t *testing.T) {
	c := startTestCluster(t, func(cfg *ClusterConfig) {
		cfg.NumWorkers = 3
		cfg.MoverInterval = 50 * time.Millisecond
		cfg.MoverCooldown = 100 * time.Millisecond
		cfg.MoverMaxMoves = 8
		cfg.HeatHalfLife = 100 * time.Millisecond // blocks cool as fast as they heat
	})
	fs, err := c.Client("")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	const files = 40
	path := func(i int) string { return fmt.Sprintf("/soak/f%02d", i) }
	data := make([][]byte, files)
	if err := fs.Mkdir("/soak", true); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = randomBytes(32<<10, int64(100+i))
		if err := fs.WriteFile(path(i), data[i], core.ReplicationVectorFromFactor(1)); err != nil {
			t.Fatal(err)
		}
	}

	// Two seconds of Zipf reads over a window of sixteen files (a flat
	// head, so the whole window counts as hot) that slides by eight
	// every 400ms: blocks behind it cool and demote while the ones it
	// reaches promote.
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 8, 15)
	start := time.Now()
	for time.Since(start) < 2*time.Second {
		shift := int(time.Since(start)/(400*time.Millisecond)) * 8
		i := (int(zipf.Uint64()) + shift) % files
		got, err := fs.ReadFile(path(i))
		if err != nil {
			// The locations may predate a move whose source was deleted
			// a moment later; fresh locations must work.
			got, err = fs.ReadFile(path(i))
		}
		if err != nil || !bytes.Equal(got, data[i]) {
			t.Fatalf("read %s under the mover: err=%v, intact=%v", path(i), err, bytes.Equal(got, data[i]))
		}
	}

	// Quiesce: with nobody reading, every block cools, sinks to HDD and
	// stays there; wait until the mover has scheduled nothing new and
	// has nothing in flight for a dozen polls (six passes).
	var last rpc.MoverStatus
	quiet := 0
	waitFor(t, 30*time.Second, "mover quiescent", func() bool {
		st, err := fs.Mover()
		if err != nil {
			t.Fatal(err)
		}
		if len(st.InFlight) == 0 && st.Counters.Scheduled == last.Counters.Scheduled {
			quiet++
		} else {
			quiet = 0
		}
		last = st
		return quiet >= 12
	})
	t.Logf("soak: %+v", last.Counters)
	if last.Counters.Promoted == 0 || last.Counters.Demoted == 0 {
		t.Fatalf("soak moved nothing both ways: %+v", last.Counters)
	}

	for i := range data {
		got, err := fs.ReadFile(path(i))
		if err != nil || !bytes.Equal(got, data[i]) {
			t.Errorf("%s unreadable after %d promotions and %d demotions: err=%v",
				path(i), last.Counters.Promoted, last.Counters.Demoted, err)
		}
	}
	report, err := fs.Fsck("/soak")
	if err != nil || len(report) != files {
		t.Fatalf("fsck = %d files, %v", len(report), err)
	}
	for _, f := range report {
		if f.HealthyBlocks != f.Blocks || f.MissingBlocks != 0 {
			t.Errorf("fsck after the soak: %+v", f)
		}
	}
	if bad := c.Master.CheckReplicas(); len(bad) != 0 {
		t.Errorf("life-cycle check after the soak: %v", bad)
	}
}
