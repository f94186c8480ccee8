package master

import (
	"net/http"
	"slices"
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
	received(t, m, core.WorkerID(worker), core.StorageID(storage), blk)
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

	flagged := m.scanMisplaced(nil)
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
	flagged = m.scanMisplaced(flagged)
	if n := len(m.Journal().Since(0, evHeatMisplaced, 0).Entries); n != 2 {
		t.Fatalf("re-scan journaled again: %d events, want 2", n)
	}

	// Leaving the misplaced set unflags the block, so a relapse
	// journals a fresh event.
	m.heat.blocks.Remove(hot)
	flagged = m.scanMisplaced(flagged)
	m.foldHeat([]heat.Delta{{Block: hot, ReadOps: 100, ReadBytes: 1 << 20}})
	m.scanMisplaced(flagged)
	if n := len(m.Journal().Since(0, evHeatMisplaced, 0).Entries); n != 3 {
		t.Fatalf("relapse events = %d, want 3", n)
	}
}

// TestHeatRenameAndForgetFollowNamespace drives the real handlers and
// reads only the rendered report: heat follows a file through renames and
// an overwrite, and goes with it on delete.
func TestHeatRenameAndForgetFollowNamespace(t *testing.T) {
	m := testMaster(t)
	svc := &Service{m: m}
	registerFakeWorker(t, m, "w1", "/r1", mediaStat("w1:hdd0", core.TierHDD, 4<<30, 120, 170))
	call := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	// write creates and seals a one-block file, then opens it once and
	// reports three block reads: every counter of the file is non-zero.
	write := func(path string) core.BlockID {
		t.Helper()
		id := heatTestBlock(t, m, path, "w1", "w1:hdd0")
		call("complete", svc.Complete(&rpc.CompleteArgs{Path: path}, &rpc.CompleteReply{}))
		call("open", svc.GetBlockLocations(&rpc.GetBlockLocationsArgs{Path: path, Length: -1}, &rpc.GetBlockLocationsReply{}))
		call("heartbeat", svc.Heartbeat(&rpc.HeartbeatArgs{ID: "w1",
			Heat: []heat.Delta{{Block: id, ReadOps: 3, ReadBytes: 300}}}, &rpc.HeartbeatReply{}))
		return id
	}
	rename := func(src, dst string) {
		t.Helper()
		call("rename", svc.Rename(&rpc.RenameArgs{Src: src, Dst: dst}, &rpc.RenameReply{}))
	}
	// want asserts the rendered file and block paths, sorted.
	want := func(when string, files, blocks []string) rpc.HeatReport {
		t.Helper()
		report := m.heatReport(100, "", false)
		var gotFiles, gotBlocks []string
		for _, f := range report.Files {
			gotFiles = append(gotFiles, f.Path)
		}
		for _, b := range report.Blocks {
			gotBlocks = append(gotBlocks, b.Path)
		}
		slices.Sort(gotFiles)
		slices.Sort(gotBlocks)
		if !slices.Equal(gotFiles, files) || !slices.Equal(gotBlocks, blocks) {
			t.Fatalf("%s: report lists files %v and blocks of %v, want %v and %v",
				when, gotFiles, gotBlocks, files, blocks)
		}
		if agg := report.Aggregate; agg.TrackedFiles != len(files) || agg.TrackedBlocks != len(blocks) {
			t.Fatalf("%s: tracking %d files / %d blocks, want %d / %d",
				when, agg.TrackedFiles, agg.TrackedBlocks, len(files), len(blocks))
		}
		return report
	}

	call("mkdir", svc.Mkdir(&rpc.MkdirArgs{Path: "/a/sub", Parents: true}, &rpc.MkdirReply{}))
	f := write("/a/f")
	write("/a/sub/h")
	want("written", []string{"/a/f", "/a/sub/h"}, []string{"/a/f", "/a/sub/h"})

	rename("/a/f", "/a/g")
	want("file renamed", []string{"/a/g", "/a/sub/h"}, []string{"/a/g", "/a/sub/h"})

	// A directory rename moves every hot file and block underneath.
	rename("/a", "/b")
	report := want("directory renamed", []string{"/b/g", "/b/sub/h"}, []string{"/b/g", "/b/sub/h"})
	for _, fh := range report.Files {
		if fh.Read.Ops < 0.9 || fh.Write.Ops < 0.9 {
			t.Errorf("%s lost heat over two renames: %+v", fh.Path, fh)
		}
	}
	if got := m.heatReport(100, "/b/g", false); len(got.Files) != 1 || len(got.Blocks) != 1 || got.Blocks[0].Block != f {
		t.Errorf("?file=/b/g lists %+v / %+v, want the file and its block", got.Files, got.Blocks)
	}
	if got := m.heatReport(100, "/a/g", false); got.Files != nil || got.Blocks != nil {
		t.Errorf("?file=<old path> still lists %+v / %+v", got.Files, got.Blocks)
	}

	// An overwriting create replaces the blocks and keeps the file's heat.
	call("overwrite", svc.Create(&rpc.CreateArgs{Path: "/b/g", Overwrite: true,
		RepVector: core.ReplicationVectorFromFactor(1)}, &rpc.CreateReply{}))
	report = want("overwritten", []string{"/b/g", "/b/sub/h"}, []string{"/b/sub/h"})
	for _, fh := range report.Files {
		if fh.Path == "/b/g" && (fh.Read.Ops < 0.9 || fh.Write.Ops < 1.9) {
			t.Errorf("overwrite lost /b/g's heat: %+v, want ~1 read and ~2 writes", fh)
		}
	}

	// Delete-then-recreate is a new file: it starts cold.
	call("delete", svc.Delete(&rpc.DeleteArgs{Path: "/b/g"}, &rpc.DeleteReply{}))
	want("deleted", []string{"/b/sub/h"}, []string{"/b/sub/h"})
	call("recreate", svc.Create(&rpc.CreateArgs{Path: "/b/g",
		RepVector: core.ReplicationVectorFromFactor(1)}, &rpc.CreateReply{}))
	report = want("recreated", []string{"/b/g", "/b/sub/h"}, []string{"/b/sub/h"})
	for _, fh := range report.Files {
		if fh.Path == "/b/g" && (fh.Read.Ops != 0 || fh.Write.Ops > 1) {
			t.Errorf("recreated /b/g inherited heat: %+v, want no reads and one write", fh)
		}
	}

	_, _, _, h, err := m.ns.FileBlocks("/b/sub/h")
	if err != nil {
		t.Fatal(err)
	}
	call("delete -r", svc.Delete(&rpc.DeleteArgs{Path: "/b", Recursive: true}, &rpc.DeleteReply{}))
	want("directory deleted", nil, nil)

	// A handler that resolved the file before the delete and touches it
	// after must not bring the file's heat back either.
	m.touchFileRead(h, 100)
	m.touchFileWrite(h)
	if n := m.heat.files.Len(); n != 0 {
		t.Errorf("late touch resurrected %d file heat entries", n)
	}

	// A delta the worker drained after the delete must not bring the
	// block's heat back: nothing would ever forget it again.
	call("late heartbeat", svc.Heartbeat(&rpc.HeartbeatArgs{ID: "w1",
		Heat: []heat.Delta{{Block: f, ReadOps: 5, ReadBytes: 500}}}, &rpc.HeartbeatReply{}))
	if n := m.heat.blocks.Len(); n != 0 {
		t.Errorf("late heartbeat resurrected %d block heat entries", n)
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
