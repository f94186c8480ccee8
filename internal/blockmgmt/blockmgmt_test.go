package blockmgmt

import (
	"testing"

	"repro/internal/core"
)

func b(id uint64) core.Block { return core.Block{ID: core.BlockID(id), GenStamp: 1} }

func rep(w, s string, t core.StorageTier) Replica {
	return Replica{Worker: core.WorkerID(w), Storage: core.StorageID(s), Tier: t}
}

func TestComputeStateSatisfied(t *testing.T) {
	st := computeState(core.NewReplicationVector(1, 0, 2, 0, 0), map[core.StorageTier]int{
		core.TierMemory: 1, core.TierHDD: 2,
	})
	if !st.Satisfied() {
		t.Errorf("exact match not satisfied: %+v", st)
	}
}

func TestComputeStatePinnedDeficit(t *testing.T) {
	st := computeState(core.NewReplicationVector(1, 0, 2, 0, 0), map[core.StorageTier]int{
		core.TierHDD: 1,
	})
	if st.MissingPerTier[core.TierMemory] != 1 || st.MissingPerTier[core.TierHDD] != 1 {
		t.Errorf("MissingPerTier = %v, want memory:1 hdd:1", st.MissingPerTier)
	}
	if st.MissingTotal() != 2 {
		t.Errorf("MissingTotal = %d, want 2", st.MissingTotal())
	}
}

func TestComputeStateUnspecifiedSatisfiedByAnyTier(t *testing.T) {
	// U=3, replicas on SSD+HDD+HDD: satisfied.
	st := computeState(core.ReplicationVectorFromFactor(3), map[core.StorageTier]int{
		core.TierSSD: 1, core.TierHDD: 2,
	})
	if !st.Satisfied() {
		t.Errorf("U=3 with 3 replicas not satisfied: %+v", st)
	}
}

func TestComputeStateUnderReplicatedUnspecified(t *testing.T) {
	st := computeState(core.ReplicationVectorFromFactor(3), map[core.StorageTier]int{
		core.TierHDD: 1,
	})
	if st.MissingAny != 2 || len(st.MissingPerTier) != 0 {
		t.Errorf("state = %+v, want MissingAny=2", st)
	}
}

func TestComputeStateExcess(t *testing.T) {
	// Expected <1,0,2,0,0>, actual 1 mem + 3 hdd: one HDD replica in
	// excess.
	st := computeState(core.NewReplicationVector(1, 0, 2, 0, 0), map[core.StorageTier]int{
		core.TierMemory: 1, core.TierHDD: 3,
	})
	if st.Excess != 1 {
		t.Errorf("Excess = %d, want 1", st.Excess)
	}
	if len(st.ExcessTiers) != 1 || st.ExcessTiers[0] != core.TierHDD {
		t.Errorf("ExcessTiers = %v, want [HDD]", st.ExcessTiers)
	}
}

func TestComputeStateMixedSurplusFeedsUnspecified(t *testing.T) {
	// <0,1,0,0,2>: one pinned SSD, two anywhere. Actual: 2 SSD + 1 HDD.
	// SSD surplus (1) and the HDD replica both count toward U=2.
	st := computeState(core.NewReplicationVector(0, 1, 0, 0, 2), map[core.StorageTier]int{
		core.TierSSD: 2, core.TierHDD: 1,
	})
	if !st.Satisfied() {
		t.Errorf("state = %+v, want satisfied", st)
	}
}

func TestComputeStateSimultaneousDeficitAndExcess(t *testing.T) {
	// <1,0,2,0,0>: actual 3 SSD. Memory missing 1, HDD missing 2, and
	// all 3 SSD replicas are excess (no U entries to absorb them).
	st := computeState(core.NewReplicationVector(1, 0, 2, 0, 0), map[core.StorageTier]int{
		core.TierSSD: 3,
	})
	if st.MissingPerTier[core.TierMemory] != 1 || st.MissingPerTier[core.TierHDD] != 2 {
		t.Errorf("MissingPerTier = %v", st.MissingPerTier)
	}
	if st.Excess != 3 {
		t.Errorf("Excess = %d, want 3", st.Excess)
	}
}

func TestManagerAddRemoveReplica(t *testing.T) {
	m := NewManager()
	m.AddBlock(b(1), core.ReplicationVectorFromFactor(2))
	if n := m.NumBlocks(); n != 1 {
		t.Fatalf("NumBlocks = %d", n)
	}

	if deletes := m.AddReplica(b(1), rep("w1", "w1:hdd0", core.TierHDD)); len(deletes) != 0 {
		t.Errorf("AddReplica = %v, want accepted", deletes)
	}
	m.AddReplica(b(1), rep("w2", "w2:hdd0", core.TierHDD))
	if got := len(m.Replicas(1)); got != 2 {
		t.Fatalf("replicas = %d, want 2", got)
	}
	// Duplicate storage updates in place, not appends.
	m.AddReplica(b(1), rep("w1", "w1:hdd0", core.TierHDD))
	if got := len(m.Replicas(1)); got != 2 {
		t.Errorf("replicas after duplicate add = %d, want 2", got)
	}

	st, ok := m.State(1)
	if !ok || !st.Satisfied() {
		t.Errorf("State = %+v, want satisfied", st)
	}

	if deletes := m.Retire(1, "w1:hdd0"); len(deletes) != 1 || deletes[0].Storage != "w1:hdd0" {
		t.Fatalf("Retire = %+v, want the one deletion", deletes)
	}
	st, _ = m.State(1)
	if st.MissingAny != 1 {
		t.Errorf("after removal MissingAny = %d, want 1", st.MissingAny)
	}
	if deletes := m.Retire(1, "w2:hdd0"); deletes != nil {
		t.Errorf("Retire took the last live replica: %+v", deletes)
	}
}

func TestManagerStaleGeneration(t *testing.T) {
	m := NewManager()
	fresh := core.Block{ID: 5, GenStamp: 3}
	m.AddBlock(fresh, core.ReplicationVectorFromFactor(1))
	stale := core.Block{ID: 5, GenStamp: 2}
	deletes := m.AddReplica(stale, rep("w1", "w1:hdd0", core.TierHDD))
	if len(deletes) != 1 || deletes[0].Block != stale {
		t.Errorf("stale replica: deletes=%+v, want refused with its own deletion", deletes)
	}
	if got := len(m.Replicas(5)); got != 0 {
		t.Errorf("stale replica stored: %d", got)
	}
}

func TestManagerUnknownBlockReplica(t *testing.T) {
	m := NewManager()
	deletes := m.AddReplica(b(99), rep("w1", "w1:hdd0", core.TierHDD))
	if len(deletes) != 1 || deletes[0].Storage != "w1:hdd0" {
		t.Errorf("unknown block: deletes=%+v, want refused with its own deletion", deletes)
	}
}

func TestManagerRemoveBlock(t *testing.T) {
	m := NewManager()
	m.AddBlock(b(1), core.ReplicationVectorFromFactor(2))
	m.AddReplica(b(1), rep("w1", "w1:hdd0", core.TierHDD))
	m.AddReplica(b(1), rep("w2", "w2:ssd0", core.TierSSD))
	replicas := m.RemoveBlock(1)
	if len(replicas) != 2 {
		t.Errorf("RemoveBlock returned %d replicas, want 2", len(replicas))
	}
	if m.NumBlocks() != 0 {
		t.Error("block not removed")
	}
	if got := m.RemoveBlock(1); got != nil {
		t.Errorf("double RemoveBlock = %v", got)
	}
}

func TestManagerRemoveWorker(t *testing.T) {
	m := NewManager()
	m.AddBlock(b(1), core.ReplicationVectorFromFactor(2))
	m.AddBlock(b(2), core.ReplicationVectorFromFactor(2))
	m.AddReplica(b(1), rep("w1", "w1:hdd0", core.TierHDD))
	m.AddReplica(b(1), rep("w2", "w2:hdd0", core.TierHDD))
	m.AddReplica(b(2), rep("w1", "w1:ssd0", core.TierSSD))

	m.RemoveWorker("w1")
	if got := len(m.Replicas(1)); got != 1 {
		t.Errorf("block 1 replicas = %d, want 1", got)
	}
	if got := len(m.Replicas(2)); got != 0 {
		t.Errorf("block 2 replicas = %d, want 0", got)
	}
	m.RemoveWorker("w1") // a second removal finds nothing and is harmless
	if bad := m.Check(func(w core.WorkerID) bool { return w != "w1" }); len(bad) != 0 {
		t.Errorf("Check after RemoveWorker: %v", bad)
	}
}

func TestManagerCommitAndSetExpected(t *testing.T) {
	m := NewManager()
	m.AddBlock(b(1), core.ReplicationVectorFromFactor(1))
	committed := core.Block{ID: 1, GenStamp: 1, NumBytes: 4096}
	m.CommitBlock(committed)
	info, ok := m.Info(1)
	if !ok || info.Block.NumBytes != 4096 {
		t.Errorf("Info after commit = %+v", info)
	}
	m.SetExpected(1, core.NewReplicationVector(1, 1, 1, 0, 0))
	st, _ := m.State(1)
	if st.MissingTotal() != 3 {
		t.Errorf("MissingTotal after SetExpected = %d, want 3", st.MissingTotal())
	}
}

func TestScanUnhealthy(t *testing.T) {
	m := NewManager()
	m.AddBlock(b(1), core.ReplicationVectorFromFactor(1)) // missing 1
	m.AddBlock(b(2), core.ReplicationVectorFromFactor(1)) // healthy
	m.AddReplica(b(2), rep("w1", "w1:hdd0", core.TierHDD))
	m.AddBlock(b(3), core.ReplicationVectorFromFactor(1)) // excess
	m.AddReplica(b(3), rep("w1", "w1:hdd1", core.TierHDD))
	m.AddReplica(b(3), rep("w2", "w2:hdd0", core.TierHDD))
	for _, id := range []uint64{1, 2, 3} {
		m.CommitBlock(b(id)) // release to the monitor
	}

	var visited []core.BlockID
	m.ScanUnhealthy(func(info BlockInfo, st ReplicationState) {
		visited = append(visited, info.Block.ID)
		if st.Satisfied() {
			t.Errorf("ScanUnhealthy visited satisfied block %v", info.Block.ID)
		}
	})
	if len(visited) != 2 || visited[0] != 1 || visited[1] != 3 {
		t.Errorf("visited = %v, want [1 3] in order", visited)
	}
}

func TestUnderConstructionBlocksSkippedByScan(t *testing.T) {
	m := NewManager()
	m.AddBlock(b(1), core.ReplicationVectorFromFactor(3)) // UC, 0 replicas
	visited := 0
	m.ScanUnhealthy(func(BlockInfo, ReplicationState) { visited++ })
	if visited != 0 {
		t.Errorf("scan visited %d under-construction blocks, want 0", visited)
	}
	m.CommitBlock(b(1))
	m.ScanUnhealthy(func(BlockInfo, ReplicationState) { visited++ })
	if visited != 1 {
		t.Errorf("scan visited %d committed blocks, want 1", visited)
	}
}

func TestReportDropsLiveReplicaOnSecondOmission(t *testing.T) {
	m := NewManager()
	m.AddBlock(b(1), core.ReplicationVectorFromFactor(1))
	m.AddReplica(b(1), rep("w1", "w1:hdd0", core.TierHDD))

	// One omitting report may predate the write: the replica stays.
	m.Report("w1", nil)
	if got := len(m.Replicas(1)); got != 1 {
		t.Fatalf("replica dropped on the first omission: %d left", got)
	}
	// Listing it again clears the mark, so omissions must be consecutive.
	m.Report("w1", []BlockReplica{{b(1), rep("w1", "w1:hdd0", core.TierHDD)}})
	m.Report("w1", nil)
	if got := len(m.Replicas(1)); got != 1 {
		t.Fatalf("non-consecutive omissions dropped the replica: %d left", got)
	}
	m.Report("w1", nil)
	if got := len(m.Replicas(1)); got != 0 {
		t.Errorf("replica survived two consecutive omissions: %d left", got)
	}
}
