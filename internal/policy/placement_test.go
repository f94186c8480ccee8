package policy

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/topology"
)

const testBlock = int64(128 << 20)

func moopRequest(s *Snapshot, rv core.ReplicationVector) PlacementRequest {
	return PlacementRequest{
		Snapshot:  s,
		RepVector: rv,
		BlockSize: testBlock,
		Rand:      testRand(),
	}
}

func TestMOOPHonorsPinnedTiers(t *testing.T) {
	s := paperCluster(9, 3)
	p := NewMOOPPolicy(DefaultMOOPConfig())
	rv := core.NewReplicationVector(1, 1, 1, 0, 0)
	got, err := p.PlaceReplicas(moopRequest(s, rv))
	if err != nil {
		t.Fatalf("PlaceReplicas: %v", err)
	}
	byTier := countByTier(got)
	if byTier[core.TierMemory] != 1 || byTier[core.TierSSD] != 1 || byTier[core.TierHDD] != 1 {
		t.Errorf("tier counts = %v, want 1 memory, 1 ssd, 1 hdd", byTier)
	}
	if hasDuplicates(got) {
		t.Errorf("selection reuses media: %v", got)
	}
}

func TestMOOPUnspecifiedAvoidsMemoryByDefault(t *testing.T) {
	s := paperCluster(9, 3)
	p := NewMOOPPolicy(DefaultMOOPConfig()) // UseMemory=false
	got, err := p.PlaceReplicas(moopRequest(s, core.ReplicationVectorFromFactor(3)))
	if err != nil {
		t.Fatalf("PlaceReplicas: %v", err)
	}
	if n := countByTier(got)[core.TierMemory]; n != 0 {
		t.Errorf("placed %d replicas in memory with UseMemory=false, want 0", n)
	}
}

func TestMOOPMemoryCapOneThird(t *testing.T) {
	s := paperCluster(9, 3)
	cfg := DefaultMOOPConfig()
	cfg.UseMemory = true
	p := NewMOOPPolicy(cfg)
	// With 6 replicas and a 1/3 cap, at most 2 may live in memory.
	got, err := p.PlaceReplicas(moopRequest(s, core.ReplicationVectorFromFactor(6)))
	if err != nil {
		t.Fatalf("PlaceReplicas: %v", err)
	}
	if n := countByTier(got)[core.TierMemory]; n > 2 {
		t.Errorf("placed %d of 6 replicas in memory, want <= 2 (1/3 cap)", n)
	}
}

func TestMOOPPinnedMemoryAlwaysHonoredDespiteCap(t *testing.T) {
	s := paperCluster(9, 3)
	p := NewMOOPPolicy(DefaultMOOPConfig()) // UseMemory=false
	// Explicit pin must override the policy-level memory opt-out.
	got, err := p.PlaceReplicas(moopRequest(s, core.NewReplicationVector(2, 0, 1, 0, 0)))
	if err != nil {
		t.Fatalf("PlaceReplicas: %v", err)
	}
	if n := countByTier(got)[core.TierMemory]; n != 2 {
		t.Errorf("placed %d memory replicas, want 2 (explicitly pinned)", n)
	}
}

func TestMOOPSpreadsAcrossNodesAndTwoRacks(t *testing.T) {
	s := paperCluster(9, 3)
	p := NewMOOPPolicy(DefaultMOOPConfig())
	got, err := p.PlaceReplicas(moopRequest(s, core.ReplicationVectorFromFactor(3)))
	if err != nil {
		t.Fatalf("PlaceReplicas: %v", err)
	}
	if n := distinctNodes(got); n != 3 {
		t.Errorf("replicas on %d distinct nodes, want 3", n)
	}
	if n := distinctRacks(got); n != 2 {
		t.Errorf("replicas on %d racks, want exactly 2 (paper heuristic)", n)
	}
}

func TestMOOPClientCollocationFirstReplica(t *testing.T) {
	s := paperCluster(9, 3)
	p := NewMOOPPolicy(DefaultMOOPConfig())
	req := moopRequest(s, core.ReplicationVectorFromFactor(3))
	req.Client = topology.Location{Rack: "/rack2", Node: "node5"}
	got, err := p.PlaceReplicas(req)
	if err != nil {
		t.Fatalf("PlaceReplicas: %v", err)
	}
	if got[0].Node != "node5" {
		t.Errorf("first replica on %s, want client node node5", got[0].Node)
	}
}

func TestMOOPCapacityConstraint(t *testing.T) {
	s := paperCluster(3, 1)
	// Starve every media except two HDDs.
	for i := range s.Media {
		if s.Media[i].ID != "node1:hdd0" && s.Media[i].ID != "node2:hdd0" {
			s.Media[i].Remaining = testBlock - 1
		}
	}
	p := NewMOOPPolicy(DefaultMOOPConfig())
	got, err := p.PlaceReplicas(moopRequest(s, core.ReplicationVectorFromFactor(3)))
	if !errors.Is(err, core.ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace (only 2 feasible media)", err)
	}
	if len(got) != 2 {
		t.Fatalf("placed %d replicas, want 2 (partial placement)", len(got))
	}
	for _, m := range got {
		if m.ID != "node1:hdd0" && m.ID != "node2:hdd0" {
			t.Errorf("placed on infeasible media %s", m.ID)
		}
	}
}

func TestMOOPNoFeasibleMedia(t *testing.T) {
	s := paperCluster(2, 1)
	for i := range s.Media {
		s.Media[i].Remaining = 0
	}
	p := NewMOOPPolicy(DefaultMOOPConfig())
	if _, err := p.PlaceReplicas(moopRequest(s, core.ReplicationVectorFromFactor(1))); !errors.Is(err, core.ErrNoSpace) {
		t.Errorf("err = %v, want ErrNoSpace", err)
	}
}

func TestMOOPEmptyCluster(t *testing.T) {
	p := NewMOOPPolicy(DefaultMOOPConfig())
	_, err := p.PlaceReplicas(PlacementRequest{Snapshot: &Snapshot{}, RepVector: core.ReplicationVectorFromFactor(1)})
	if !errors.Is(err, core.ErrNoWorkers) {
		t.Errorf("err = %v, want ErrNoWorkers", err)
	}
}

func TestMOOPZeroVector(t *testing.T) {
	s := paperCluster(2, 1)
	p := NewMOOPPolicy(DefaultMOOPConfig())
	if _, err := p.PlaceReplicas(moopRequest(s, 0)); err == nil {
		t.Error("PlaceReplicas(zero vector): got nil error")
	}
}

func TestMOOPReReplicationAvoidsExistingMediaAndNodes(t *testing.T) {
	s := paperCluster(9, 3)
	existing := []Media{*findMedia(s, "node1:hdd0"), *findMedia(s, "node4:hdd0")}
	p := NewMOOPPolicy(DefaultMOOPConfig())
	req := moopRequest(s, core.NewReplicationVector(0, 0, 1, 0, 0))
	req.Existing = existing
	got, err := p.PlaceReplicas(req)
	if err != nil {
		t.Fatalf("PlaceReplicas: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("placed %d replicas, want 1", len(got))
	}
	if got[0].ID == "node1:hdd0" || got[0].ID == "node4:hdd0" {
		t.Errorf("re-replication reused existing media %s", got[0].ID)
	}
	if got[0].Node == "node1" || got[0].Node == "node4" {
		t.Errorf("re-replication reused existing node %s; FT objective should spread", got[0].Node)
	}
	// Rack pruning with existing replicas on rack1+rack1(node4=rack1?):
	// node1 -> rack1, node4 -> rack1 (9 workers, 3 racks: node4 = rack1).
	// So the new replica should land off rack1.
	if got[0].Rack == "/rack1" {
		t.Errorf("new replica on %s, want a different rack than both existing", got[0].Rack)
	}
}

func TestMOOPRackPruningFallsBackWhenOnlyOneRackFeasible(t *testing.T) {
	s := paperCluster(6, 2)
	// Make every media outside rack1 infeasible.
	for i := range s.Media {
		if s.Media[i].Rack != "/rack1" {
			s.Media[i].Remaining = 0
		}
	}
	p := NewMOOPPolicy(DefaultMOOPConfig())
	got, err := p.PlaceReplicas(moopRequest(s, core.ReplicationVectorFromFactor(3)))
	if err != nil {
		t.Fatalf("PlaceReplicas: %v (rack pruning must relax, not fail)", err)
	}
	for _, m := range got {
		if m.Rack != "/rack1" {
			t.Errorf("replica on infeasible rack %s", m.Rack)
		}
	}
}

func TestSingleObjectivePolicies(t *testing.T) {
	t.Run("TM picks fastest tier", func(t *testing.T) {
		s := paperCluster(9, 3)
		p := NewSingleObjectivePolicy(ThroughputMax)
		got, err := p.PlaceReplicas(moopRequest(s, core.ReplicationVectorFromFactor(3)))
		if err != nil {
			t.Fatalf("PlaceReplicas: %v", err)
		}
		// TM single-objective still respects the 1/3 memory cap, so
		// expect 1 memory + 2 SSD (fastest feasible).
		byTier := countByTier(got)
		if byTier[core.TierHDD] != 0 {
			t.Errorf("TM placed %d replicas on HDD, want 0 while faster tiers have space", byTier[core.TierHDD])
		}
	})

	t.Run("DB picks most-remaining media", func(t *testing.T) {
		s := paperCluster(3, 1)
		// Drain everything to 40% except two specific HDDs at 100%.
		for i := range s.Media {
			s.Media[i].Remaining = s.Media[i].Capacity * 2 / 5
		}
		findMedia(s, "node2:hdd1").Remaining = findMedia(s, "node2:hdd1").Capacity
		p := NewSingleObjectivePolicy(DataBalancing)
		got, err := p.PlaceReplicas(moopRequest(s, core.ReplicationVectorFromFactor(1)))
		if err != nil {
			t.Fatalf("PlaceReplicas: %v", err)
		}
		if got[0].ID != "node2:hdd1" {
			t.Errorf("DB picked %s, want node2:hdd1 (highest remaining %%)", got[0].ID)
		}
	})

	t.Run("LB picks least-loaded media", func(t *testing.T) {
		s := paperCluster(3, 1)
		for i := range s.Media {
			s.Media[i].Connections = 5
		}
		findMedia(s, "node3:ssd0").Connections = 0
		p := NewSingleObjectivePolicy(LoadBalancing)
		got, err := p.PlaceReplicas(moopRequest(s, core.ReplicationVectorFromFactor(1)))
		if err != nil {
			t.Fatalf("PlaceReplicas: %v", err)
		}
		if got[0].ID != "node3:ssd0" {
			t.Errorf("LB picked %s, want node3:ssd0 (idle media)", got[0].ID)
		}
	})

	t.Run("FT spreads tiers nodes racks", func(t *testing.T) {
		s := paperCluster(9, 3)
		p := NewSingleObjectivePolicy(FaultTolerance)
		got, err := p.PlaceReplicas(moopRequest(s, core.ReplicationVectorFromFactor(3)))
		if err != nil {
			t.Fatalf("PlaceReplicas: %v", err)
		}
		tiers, nodes, racks := distinctCounts(got)
		if tiers != 3 || nodes != 3 || racks != 2 {
			t.Errorf("FT selection: tiers=%d nodes=%d racks=%d, want 3/3/2", tiers, nodes, racks)
		}
	})
}

func TestPolicyNames(t *testing.T) {
	if got := NewMOOPPolicy(DefaultMOOPConfig()).Name(); got != "MOOP" {
		t.Errorf("MOOP Name() = %q", got)
	}
	if got := NewSingleObjectivePolicy(DataBalancing).Name(); got != "DB" {
		t.Errorf("DB policy Name() = %q", got)
	}
	if got := NewHDFSPolicy().Name(); got != "OriginalHDFS" {
		t.Errorf("HDFS Name() = %q", got)
	}
	if got := NewHDFSWithSSDPolicy().Name(); got != "HDFSwithSSD" {
		t.Errorf("HDFS+SSD Name() = %q", got)
	}
	if got := NewRuleBasedPolicy().Name(); got != "RuleBased" {
		t.Errorf("RuleBased Name() = %q", got)
	}
}

func TestSelectExcessReplica(t *testing.T) {
	s := paperCluster(9, 3)
	// Three HDD replicas, two on the same node: removing one of the
	// clumped pair leaves the best-spread remainder.
	replicas := []Media{
		*findMedia(s, "node1:hdd0"),
		*findMedia(s, "node1:hdd1"),
		*findMedia(s, "node5:hdd0"),
	}
	idx, ok := SelectExcessReplica(s, testBlock, replicas, core.TierHDD)
	if !ok {
		t.Fatal("SelectExcessReplica: no candidate")
	}
	if idx != 0 && idx != 1 {
		t.Errorf("removed replica %d (%s), want one of the node1 pair", idx, replicas[idx].ID)
	}

	// Tier restriction: only memory replicas may be removed.
	mixed := []Media{
		*findMedia(s, "node1:mem0"),
		*findMedia(s, "node2:hdd0"),
		*findMedia(s, "node5:hdd0"),
	}
	idx, ok = SelectExcessReplica(s, testBlock, mixed, core.TierMemory)
	if !ok || mixed[idx].Tier != core.TierMemory {
		t.Errorf("SelectExcessReplica(memory) = %d ok=%v, want the memory replica", idx, ok)
	}

	// No replica on the requested tier.
	if _, ok := SelectExcessReplica(s, testBlock, mixed, core.TierRemote); ok {
		t.Error("SelectExcessReplica(remote): got ok=true, want false")
	}
	if _, ok := SelectExcessReplica(s, testBlock, nil, core.TierUnspecified); ok {
		t.Error("SelectExcessReplica(empty): got ok=true, want false")
	}
}

func TestSolveMOOP(t *testing.T) {
	s := paperCluster(3, 1)
	ctx := newEvalContext(s, testBlock)
	options := []Media{*findMedia(s, "node1:hdd0"), *findMedia(s, "node1:mem0")}
	best, ok := solveMOOP(ctx, options, nil, AllObjectives(), NormL2, nil)
	if !ok {
		t.Fatal("solveMOOP returned no media")
	}
	if best.Tier != core.TierMemory {
		t.Errorf("solveMOOP picked %s; on a fresh cluster the memory media dominates", best.ID)
	}
	if _, ok := solveMOOP(ctx, nil, nil, AllObjectives(), NormL2, nil); ok {
		t.Error("solveMOOP(no options): got ok=true")
	}
}

// TestQuickMOOPInvariants property-checks the MOOP policy on random
// cluster shapes: placements never duplicate media, never exceed
// capacity, and honour pinned tiers.
func TestQuickMOOPInvariants(t *testing.T) {
	p := NewMOOPPolicy(DefaultMOOPConfig())
	f := func(nWorkers, nRacks, mPin, sPin, hPin, uPin uint8, seed int64) bool {
		nw := int(nWorkers)%8 + 2 // 2..9 workers
		nr := int(nRacks)%3 + 1   // 1..3 racks
		s := paperCluster(nw, nr)
		rv := core.NewReplicationVector(int(mPin)%2, int(sPin)%3, int(hPin)%3, 0, int(uPin)%3)
		if rv.IsZero() {
			return true
		}
		req := moopRequest(s, rv)
		req.Rand = nil
		got, err := p.PlaceReplicas(req)
		if err != nil && !errors.Is(err, core.ErrNoSpace) {
			return false
		}
		if hasDuplicates(got) {
			return false
		}
		byTier := countByTier(got)
		// Pinned tier counts may not be exceeded by... pinned entries
		// are exact; unspecified adds only to non-pinned feasible tiers.
		if err == nil {
			if byTier[core.TierMemory] < rv.Memory() ||
				byTier[core.TierSSD] < rv.SSD() ||
				byTier[core.TierHDD] < rv.HDD() {
				return false
			}
		}
		for _, m := range got {
			if m.Remaining < testBlock {
				return false
			}
		}
		_ = seed
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
