package integration

import (
	"io"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/rpc"
)

// TestHeatPlaneEndToEnd is the access-heat acceptance test: after a
// skewed read workload, the master's heat report ranks the truly hot
// file first, flags the hot HDD-pinned block as hot_on_cold with its
// tier vector and originating placement decision, journals the
// transition, and folds the aggregate into telemetry samples.
func TestHeatPlaneEndToEnd(t *testing.T) {
	c := startTestCluster(t, func(cfg *ClusterConfig) {
		cfg.NumWorkers = 2
		cfg.HistoryInterval = 60 * time.Millisecond
	})
	fs, err := c.Client("")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	// /hot is pinned to HDD only — exactly the shape the fitness
	// report must flag once reads pile on. /chilly keeps a memory
	// replica, so however often it is read it is never hot-on-cold.
	data := randomBytes(256<<10, 3)
	if err := fs.WriteFile("/hot", data, core.NewReplicationVector(0, 0, 2, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/warm", data, core.NewReplicationVector(0, 0, 1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/chilly", data, core.NewReplicationVector(1, 0, 1, 0, 0)); err != nil {
		t.Fatal(err)
	}

	readFile := func(path string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			r, err := fs.Open(path)
			if err != nil {
				t.Fatalf("Open(%s): %v", path, err)
			}
			if _, err := io.Copy(io.Discard, r); err != nil {
				t.Fatalf("read %s: %v", path, err)
			}
			r.Close()
		}
	}
	readFile("/hot", 12)
	readFile("/warm", 4)
	readFile("/chilly", 1)

	// Block heat rides worker heartbeats (50ms here) and the
	// misplacement scan runs at history cadence, so poll until the
	// deltas have landed and the scan has flagged the hot block.
	var report rpc.HeatReport
	waitFor(t, 5*time.Second, "heat deltas folded and misplacement flagged", func() bool {
		report, err = fs.Heat(10, "", false)
		if err != nil {
			t.Fatal(err)
		}
		return report.Aggregate.TrackedBlocks >= 3 && len(report.Misplaced) > 0
	})

	// File ranking follows the read skew (opens: 12 vs 4 vs 1).
	if len(report.Files) < 3 {
		t.Fatalf("file ranking = %d entries, want >= 3", len(report.Files))
	}
	if report.Files[0].Path != "/hot" || report.Files[1].Path != "/warm" || report.Files[2].Path != "/chilly" {
		t.Fatalf("file ranking = %q %q %q, want /hot /warm /chilly",
			report.Files[0].Path, report.Files[1].Path, report.Files[2].Path)
	}
	if report.Files[0].Read.Ops < 10 {
		t.Errorf("/hot read ops = %.1f, want ~12", report.Files[0].Read.Ops)
	}

	// The hot HDD-pinned block tops the fitness report, with its tier
	// vector and a link back to the placement decision that put it
	// there. The memory-replicated /chilly block must not be flagged
	// hot-on-cold no matter how its heat compares.
	top := report.Misplaced[0]
	if top.Kind != rpc.MisplacedHotOnCold || top.Path != "/hot" {
		t.Fatalf("top misplacement = %+v, want hot_on_cold for /hot", top)
	}
	if top.Tiers[core.TierHDD] != 2 || top.BestTier != core.TierHDD {
		t.Errorf("tier vector = %v best %v, want 2 HDD replicas", top.Tiers, top.BestTier)
	}
	if top.Heat <= 0 || top.Score <= 0 {
		t.Errorf("finding carries no heat: %+v", top)
	}
	if top.DecisionTraceID == "" {
		t.Error("finding not linked to its placement decision")
	}
	for _, mb := range report.Misplaced {
		if mb.Path == "/chilly" && mb.Kind == rpc.MisplacedHotOnCold {
			t.Errorf("memory-replicated /chilly flagged hot_on_cold: %+v", mb)
		}
	}

	// The transition was journaled, linked to the same trace. The
	// scan runs at history cadence, so the event can trail the
	// on-demand report by a tick.
	var pageEvents []events.Event
	waitFor(t, 5*time.Second, "heat_misplaced event journaled", func() bool {
		page, _, err := fs.Events(0, "heat_misplaced", 0)
		if err != nil {
			t.Fatal(err)
		}
		pageEvents = page.Entries
		return len(pageEvents) > 0
	})
	found := false
	for _, e := range pageEvents {
		if e.Attrs["path"] == "/hot" {
			found = true
			if e.TraceID != top.DecisionTraceID {
				t.Errorf("event trace %q != decision trace %q", e.TraceID, top.DecisionTraceID)
			}
		}
	}
	if !found {
		t.Errorf("no heat_misplaced event for /hot: %+v", pageEvents)
	}

	// Telemetry samples carry the heat aggregate.
	samples, err := fs.ClusterHistory(1)
	if err != nil || len(samples) == 0 {
		t.Fatalf("ClusterHistory: %v", err)
	}
	live := samples[len(samples)-1]
	if live.Heat.TrackedBlocks < 3 || live.Heat.TotalHeat <= 0 {
		t.Errorf("live sample heat = %+v, want >= 3 tracked blocks", live.Heat)
	}
	if live.Heat.TierHeat[core.TierHDD] <= 0 {
		t.Errorf("live sample HDD tier heat = %v, want > 0", live.Heat.TierHeat)
	}

	// The per-file view restricts the block list.
	only, err := fs.Heat(10, "/hot", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(only.Blocks) == 0 {
		t.Fatal("file-filtered report has no blocks")
	}
	for _, b := range only.Blocks {
		if b.Path != "/hot" {
			t.Errorf("?file=/hot leaked block for %q", b.Path)
		}
	}
}
