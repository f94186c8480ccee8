package master

import (
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/heat"
	"repro/internal/rpc"
)

// heatTestBlock creates a one-block file and reports its single
// replica as stored on the given media, returning the block ID.
func heatTestBlock(t *testing.T, m *Master, path, worker, storage string) core.BlockID {
	t.Helper()
	svc := &Service{m: m}
	if err := svc.Create(&rpc.CreateArgs{
		Path: path, RepVector: core.ReplicationVectorFromFactor(1),
	}, &rpc.CreateReply{}); err != nil {
		t.Fatal(err)
	}
	var reply rpc.AddBlockReply
	if err := svc.AddBlock(&rpc.AddBlockArgs{
		ReqHeader: rpc.ReqHeader{ReqID: rpc.NewRequestID()},
		Path:      path,
	}, &reply); err != nil {
		t.Fatal(err)
	}
	blk := reply.Located.Block
	blk.NumBytes = 1 << 20
	if err := svc.BlockReceived(&rpc.BlockReceivedArgs{
		ID: core.WorkerID(worker), Storage: core.StorageID(storage), Block: blk,
	}, &rpc.BlockReceivedReply{}); err != nil {
		t.Fatal(err)
	}
	return blk.ID
}

// heatTestCluster builds a master with one worker exposing memory and
// HDD media, a hot block whose only replica is on HDD, and a cold
// block squatting in memory. Heat arrives through the real heartbeat
// piggyback path for the hot block.
func heatTestCluster(t *testing.T) (*Master, core.BlockID, core.BlockID) {
	t.Helper()
	m := testMaster(t)
	registerFakeWorker(t, m, "w1", "/r1",
		mediaStat("w1:mem0", core.TierMemory, 1<<30, 1000, 2000),
		mediaStat("w1:hdd0", core.TierHDD, 4<<30, 120, 170),
	)
	hot := heatTestBlock(t, m, "/hot", "w1", "w1:hdd0")
	cold := heatTestBlock(t, m, "/cold", "w1", "w1:mem0")

	svc := &Service{m: m}
	if err := svc.Heartbeat(&rpc.HeartbeatArgs{
		ID: "w1",
		Heat: []heat.Delta{
			{Block: hot, ReadOps: 100, ReadBytes: 100 << 20},
		},
	}, &rpc.HeartbeatReply{}); err != nil {
		t.Fatal(err)
	}
	// The cold block was touched once, twenty half-lives ago: its
	// decayed heat is ~1e-6 ops, far below the cold cutoff, while a
	// premium (memory) replica still holds its bytes.
	m.heat.blocks.Add(cold, heat.Read, 1, 10,
		time.Now().Add(-20*heat.DefaultHalfLife).UnixNano())
	return m, hot, cold
}

func TestHeatReportRanksAndFlagsMisplacement(t *testing.T) {
	m, hot, cold := heatTestCluster(t)

	report := m.heatReport(10, "", false)
	agg := report.Aggregate
	if agg.TrackedBlocks != 2 || agg.TrackedFiles != 2 {
		t.Fatalf("aggregate tracks %d blocks / %d files, want 2 / 2", agg.TrackedBlocks, agg.TrackedFiles)
	}
	if agg.MaxHeat < 90 || agg.MaxHeat > 100 {
		t.Errorf("max heat = %.2f, want ~100 decayed ops", agg.MaxHeat)
	}
	if agg.TierHeat[core.TierHDD] < 90 {
		t.Errorf("HDD tier heat = %.2f, want the hot block's ~100", agg.TierHeat[core.TierHDD])
	}
	if agg.MisplacedHot != 1 || agg.MisplacedCold != 1 {
		t.Fatalf("misplaced = %d hot / %d cold, want 1 / 1", agg.MisplacedHot, agg.MisplacedCold)
	}

	if len(report.Misplaced) != 2 {
		t.Fatalf("misplaced list = %d entries, want 2", len(report.Misplaced))
	}
	// The hot-on-cold finding scores heat×misplacement (~33); the
	// cold-on-premium one scores misplacement alone (~0.67).
	mb := report.Misplaced[0]
	if mb.Block != hot || mb.Kind != rpc.MisplacedHotOnCold {
		t.Fatalf("top misplacement = %+v, want hot_on_cold for the hot block", mb)
	}
	if mb.Path != "/hot" || mb.BestTier != core.TierHDD || mb.Tiers[core.TierHDD] != 1 {
		t.Errorf("hot finding = %+v, want /hot with one HDD replica", mb)
	}
	if mb.Score < 25 || mb.Score > 35 {
		t.Errorf("hot score = %.2f, want ~33 (heat 100 × misplacement 1/3)", mb.Score)
	}
	if mb.DecisionTraceID == "" || mb.DecisionTimeNs == 0 {
		t.Errorf("hot finding lacks the originating placement decision: %+v", mb)
	}
	cb := report.Misplaced[1]
	if cb.Block != cold || cb.Kind != rpc.MisplacedColdOnPremium || cb.BestTier != core.TierMemory {
		t.Fatalf("second misplacement = %+v, want cold_on_premium in memory", cb)
	}

	// Rankings are heat-descending and joined to paths.
	if len(report.Blocks) != 2 || report.Blocks[0].Block != hot || report.Blocks[0].Path != "/hot" {
		t.Errorf("block ranking = %+v, want the hot block first", report.Blocks)
	}
	if len(report.Files) != 2 {
		t.Fatalf("file ranking = %d entries, want 2 (creates count as writes)", len(report.Files))
	}

	// ?file= restricts the block list to one file's blocks.
	filtered := m.heatReport(10, "/cold", false)
	if len(filtered.Blocks) != 1 || filtered.Blocks[0].Block != cold {
		t.Errorf("file-filtered blocks = %+v, want only the cold block", filtered.Blocks)
	}

	// misplacedOnly omits the rankings but keeps the fitness report.
	fitness := m.heatReport(10, "", true)
	if fitness.Files != nil || fitness.Blocks != nil {
		t.Error("misplacedOnly report still carries rankings")
	}
	if len(fitness.Misplaced) != 2 {
		t.Errorf("misplacedOnly report lost findings: %+v", fitness.Misplaced)
	}
}

func TestScanMisplacedJournalsTransitionsOnce(t *testing.T) {
	m, hot, _ := heatTestCluster(t)

	m.scanMisplaced()
	page := m.Journal().Since(0, evHeatMisplaced, 0)
	if len(page.Entries) != 2 {
		t.Fatalf("heat_misplaced events = %d, want 2 (hot + cold)", len(page.Entries))
	}
	var hotEvent bool
	for _, e := range page.Entries {
		if e.Attrs["kind"] == rpc.MisplacedHotOnCold {
			hotEvent = true
			if e.Attrs["path"] != "/hot" || e.Attrs["best_tier"] != "HDD" || e.Attrs["tiers"] != "HDD:1" {
				t.Errorf("hot event attrs = %+v", e.Attrs)
			}
			if e.TraceID == "" {
				t.Error("hot event not linked to its placement decision trace")
			}
		}
	}
	if !hotEvent {
		t.Fatal("no hot_on_cold event journaled")
	}

	// A steady misplacement journals once, not every scan.
	m.scanMisplaced()
	if n := len(m.Journal().Since(0, evHeatMisplaced, 0).Entries); n != 2 {
		t.Fatalf("re-scan journaled again: %d events, want 2", n)
	}

	// Leaving the misplaced set unflags the block, so a relapse
	// journals a fresh event.
	m.heat.blocks.Remove(hot)
	m.scanMisplaced()
	m.foldHeat([]heat.Delta{{Block: hot, ReadOps: 100, ReadBytes: 1 << 20}})
	m.scanMisplaced()
	if n := len(m.Journal().Since(0, evHeatMisplaced, 0).Entries); n != 3 {
		t.Fatalf("relapse events = %d, want 3", n)
	}
}

func TestHeatRenameAndForgetFollowNamespace(t *testing.T) {
	m := testMaster(t)
	now := time.Now().UnixNano()
	m.touchFileWrite("/a/f")
	m.touchFileRead("/a/f", 100)
	m.heat.indexBlock(7, "/a/f")
	m.heat.blocks.Add(7, heat.Read, 3, 300, now)

	// Directory rename rewrites both the file map and the block index.
	m.heat.rename("/a", "/b")
	files := m.heat.files.Snapshot(now)
	if len(files) != 1 || files[0].Key != "/b/f" {
		t.Fatalf("files after dir rename = %+v, want /b/f", files)
	}
	if got := m.heat.pathOf(7); got != "/b/f" {
		t.Fatalf("pathOf after dir rename = %q, want /b/f", got)
	}
	// Exact-file rename.
	m.heat.rename("/b/f", "/c")
	if got := m.heat.pathOf(7); got != "/c" {
		t.Fatalf("pathOf after file rename = %q, want /c", got)
	}
	if files = m.heat.files.Snapshot(now); len(files) != 1 || files[0].Key != "/c" {
		t.Fatalf("files after file rename = %+v, want /c", files)
	}
	if files[0].Stat.Read.Ops == 0 || files[0].Stat.Write.Ops == 0 {
		t.Error("rename lost accumulated heat")
	}

	// Deletion drops the file heat and the block bookkeeping.
	m.heat.forgetPath("/c")
	if n := m.heat.files.Len(); n != 0 {
		t.Errorf("files after forgetPath = %d, want 0", n)
	}
	m.heat.forgetBlocks([]core.Block{{ID: 7}})
	if got := m.heat.pathOf(7); got != "" {
		t.Errorf("pathOf after forgetBlocks = %q, want \"\"", got)
	}
	if n := m.heat.blocks.Len(); n != 0 {
		t.Errorf("block heat after forgetBlocks = %d entries, want 0", n)
	}
}

// TestHTTPDebugHeatEndpoint checks /debug/heat serves the report with
// ?top, ?file, and ?misplaced handling, and 400s malformed params.
func TestHTTPDebugHeatEndpoint(t *testing.T) {
	m, hot, _ := heatTestCluster(t)
	addr, err := m.ServeHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr + "/debug/heat"

	var report rpc.HeatReport
	if code := getJSON(t, base, &report); code != http.StatusOK {
		t.Fatalf("GET /debug/heat = %d", code)
	}
	if report.HalfLifeNs != int64(heat.DefaultHalfLife) {
		t.Errorf("half-life = %d, want default %d", report.HalfLifeNs, int64(heat.DefaultHalfLife))
	}
	if report.Aggregate.TrackedBlocks != 2 || len(report.Misplaced) != 2 {
		t.Fatalf("report = %+v, want 2 tracked blocks and 2 findings", report.Aggregate)
	}
	if len(report.Blocks) != 2 || report.Blocks[0].Block != hot {
		t.Errorf("blocks = %+v, want the hot block ranked first", report.Blocks)
	}

	report = rpc.HeatReport{}
	getJSON(t, base+"?top=1", &report)
	if len(report.Files) != 1 || len(report.Blocks) != 1 || len(report.Misplaced) != 1 {
		t.Errorf("?top=1 lists = %d files / %d blocks / %d misplaced, want 1 each",
			len(report.Files), len(report.Blocks), len(report.Misplaced))
	}

	report = rpc.HeatReport{}
	getJSON(t, base+"?file=/hot", &report)
	for _, b := range report.Blocks {
		if b.Path != "/hot" {
			t.Errorf("?file=/hot leaked block for %q", b.Path)
		}
	}

	report = rpc.HeatReport{}
	getJSON(t, base+"?misplaced", &report)
	if report.Files != nil || report.Blocks != nil || len(report.Misplaced) != 2 {
		t.Errorf("?misplaced report = %+v, want findings only", report)
	}

	var ignore any
	if code := getJSON(t, base+"?top=bogus", &ignore); code != http.StatusBadRequest {
		t.Errorf("GET ?top=bogus = %d, want 400", code)
	}
	if code := getJSON(t, base+"?misplaced=bogus", &ignore); code != http.StatusBadRequest {
		t.Errorf("GET ?misplaced=bogus = %d, want 400", code)
	}
}
