package master

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/rpc"
)

// placeTestMaster starts a master whose monitor stays out of the way
// (repairs are driven by hand) with three single-HDD workers on three
// racks.
func placeTestMaster(t *testing.T, p policy.PlacementPolicy) *Master {
	t.Helper()
	m := testMaster(t, func(cfg *Config) {
		cfg.Placement = p
		cfg.MonitorInterval = time.Hour
	})
	for i := 1; i <= 3; i++ {
		id := fmt.Sprintf("w%d", i)
		registerFakeWorker(t, m, id, fmt.Sprintf("/r%d", i),
			mediaStat(id+":hdd0", core.TierHDD, 4<<30, 120, 170))
	}
	return m
}

// addBlocks creates n files with replication factor 2 and allocates
// one block for each, returning the blocks and the replicas placed.
func addBlocks(t *testing.T, m *Master, prefix string, n int) ([]core.LocatedBlock, int) {
	t.Helper()
	svc := &Service{m: m}
	var located []core.LocatedBlock
	placed := 0
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("%s%d", prefix, i)
		if err := svc.Create(&rpc.CreateArgs{Path: path, RepVector: core.ReplicationVectorFromFactor(2)}, &rpc.CreateReply{}); err != nil {
			t.Error(err)
			return located, placed
		}
		var reply rpc.AddBlockReply
		if err := svc.AddBlock(&rpc.AddBlockArgs{Path: path}, &reply); err != nil {
			t.Error(err)
			return located, placed
		}
		located = append(located, reply.Located)
		placed += len(reply.Located.Locations)
	}
	return located, placed
}

// moopScoreCount is the number of observations in the master's
// octopus_master_policy_moop_score histogram, over all tiers.
func moopScoreCount(m *Master) uint64 {
	var n uint64
	for t := core.TierMemory; t < core.StorageTier(core.NumTiers); t++ {
		n += m.metrics.moopScore.With(t.String()).Count()
	}
	return n
}

// TestSharedPolicyScoresPerMaster starts two masters on one MOOP policy
// value and places blocks on both at once: each master's score
// histogram must count exactly its own placed replicas, and nothing a
// master does may write into the shared policy.
func TestSharedPolicyScoresPerMaster(t *testing.T) {
	shared := policy.NewMOOPPolicy(policy.DefaultMOOPConfig())
	m1 := placeTestMaster(t, shared)
	placed := make([]int, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, placed[0] = addBlocks(t, m1, "/one", 20)
	}()
	m2 := placeTestMaster(t, shared)
	_, placed[1] = addBlocks(t, m2, "/two", 10)
	wg.Wait()

	for i, m := range []*Master{m1, m2} {
		if placed[i] == 0 {
			t.Fatalf("master %d placed no replicas", i+1)
		}
		if got := moopScoreCount(m); got != uint64(placed[i]) {
			t.Errorf("master %d: %d moop score observations, placed %d replicas", i+1, got, placed[i])
		}
	}
}

// TestMoopScoreCountsEveryPlacement checks the score histogram counts
// one observation per placed replica, write placements and repairs
// alike, and that a repair is explained with its own origin.
func TestMoopScoreCountsEveryPlacement(t *testing.T) {
	m := placeTestMaster(t, nil)
	located, placed := addBlocks(t, m, "/f", 5)
	if got := moopScoreCount(m); got != uint64(placed) {
		t.Fatalf("%d moop score observations after %d placed replicas", got, placed)
	}

	// Commit the first block, confirming its two-replica pipeline, then
	// take one replica's worker away and run the repair by hand.
	svc := &Service{m: m}
	blk := located[0].Block
	blk.NumBytes = 1 << 20
	if err := svc.CommitBlock(&rpc.CommitBlockArgs{Path: "/f0", Block: blk}, &rpc.CommitBlockReply{}); err != nil {
		t.Fatal(err)
	}
	victim := located[0].Locations[0].Worker
	if err := m.decommission(victim, ""); err != nil {
		t.Fatal(err)
	}
	m.repairBlocks()
	if got := moopScoreCount(m); got != uint64(placed+1) {
		t.Errorf("%d moop score observations after %d placed replicas and one repair", got, placed+1)
	}

	be, ok := m.placementFor(blk.ID)
	if !ok || be.Origin != rpc.OriginRepair || len(be.Replicas) != 1 {
		t.Fatalf("explanation after repair = %+v (found %v), want one repair decision", be, ok)
	}
	var target core.StorageID
	for _, w := range []core.WorkerID{"w1", "w2", "w3"} {
		for _, c := range pendingCommands(m, w) {
			if c.Kind == rpc.CmdReplicate && c.Block.ID == blk.ID {
				target = c.Target
			}
		}
	}
	if win := be.Replicas[0].Candidates[0]; target == "" || win.Storage != target || !win.Chosen {
		t.Errorf("repair winner %s (chosen %v), copy scheduled to %q", win.Storage, win.Chosen, target)
	}
}
