package policy

import (
	"math"
	"testing"
)

const floatTol = 1e-9

func almostEqual(a, b float64) bool { return math.Abs(a-b) < floatTol }

func TestDataBalancingObjective(t *testing.T) {
	s := paperCluster(3, 1)
	block := int64(128 << 20)
	m1 := *findMedia(s, "node1:hdd0")
	m2 := *findMedia(s, "node2:ssd0")

	got := newEvalContext(s, block).vector([]Media{m1, m2}, AllObjectives())[DataBalancing]
	want := float64(m1.Remaining-block)/float64(m1.Capacity) +
		float64(m2.Remaining-block)/float64(m2.Capacity)
	if !almostEqual(got, want) {
		t.Errorf("fdb = %v, want %v", got, want)
	}

	// Ideal (Eq. 2): |m| * max Rem/Cap. Fresh cluster => max percent 1.
	ideal := newEvalContext(s, block).ideal(2)[DataBalancing]
	if !almostEqual(ideal, 2.0) {
		t.Errorf("fdb* = %v, want 2", ideal)
	}
}

func TestDataBalancingPrefersEmptierMedia(t *testing.T) {
	s := paperCluster(2, 1)
	full := findMedia(s, "node1:hdd0")
	full.Remaining = full.Capacity / 10 // 10% left
	block := int64(1 << 20)

	emptier := *findMedia(s, "node2:hdd0")
	fuller := *findMedia(s, "node1:hdd0")
	fEmptier := newEvalContext(s, block).vector([]Media{emptier}, AllObjectives())[DataBalancing]
	fFuller := newEvalContext(s, block).vector([]Media{fuller}, AllObjectives())[DataBalancing]
	if fEmptier <= fFuller {
		t.Errorf("fdb(emptier)=%v <= fdb(fuller)=%v; want emptier to score higher", fEmptier, fFuller)
	}
}

func TestLoadBalancingObjective(t *testing.T) {
	s := paperCluster(2, 1)
	busy := findMedia(s, "node1:hdd0")
	busy.Connections = 4
	idle := *findMedia(s, "node2:hdd0")

	got := newEvalContext(s, 1).vector([]Media{*busy, idle}, AllObjectives())[LoadBalancing]
	want := 1.0/5.0 + 1.0
	if !almostEqual(got, want) {
		t.Errorf("flb = %v, want %v", got, want)
	}

	// Ideal (Eq. 4): |m| / (minConn+1); min connections is 0 here.
	if ideal := newEvalContext(s, 1).ideal(2)[LoadBalancing]; !almostEqual(ideal, 2.0) {
		t.Errorf("flb* = %v, want 2", ideal)
	}
}

func TestFaultToleranceObjective(t *testing.T) {
	s := paperCluster(9, 3) // k=3 tiers, n=9 nodes, t=3 racks

	// Three replicas on different tiers, nodes, and exactly 2 racks:
	// each term maximal => fft = 3 (the ideal of Eq. 6).
	spread := []Media{
		*findMedia(s, "node1:mem0"), // rack1
		*findMedia(s, "node2:ssd0"), // rack2
		*findMedia(s, "node5:hdd0"), // rack2
	}
	if got := newEvalContext(s, 1).vector(spread, AllObjectives())[FaultTolerance]; !almostEqual(got, 3) {
		t.Errorf("fft(spread) = %v, want 3", got)
	}

	// Same tier, same node: tiers=1/3, nodes=1/3, racks=1 => 1/(|1-2|+1)=1/2.
	clumped := []Media{
		*findMedia(s, "node1:hdd0"),
		*findMedia(s, "node1:hdd1"),
		*findMedia(s, "node1:hdd2"),
	}
	want := 1.0/3.0 + 1.0/3.0 + 0.5
	if got := newEvalContext(s, 1).vector(clumped, AllObjectives())[FaultTolerance]; !almostEqual(got, want) {
		t.Errorf("fft(clumped) = %v, want %v", got, want)
	}

	// Three racks: |3-2|+1 = 2 => rack term 0.5 (penalises >2 racks).
	threeRacks := []Media{
		*findMedia(s, "node1:hdd0"), // rack1
		*findMedia(s, "node2:hdd0"), // rack2
		*findMedia(s, "node3:hdd0"), // rack3
	}
	want = 1.0/3.0 + 3.0/3.0 + 0.5
	if got := newEvalContext(s, 1).vector(threeRacks, AllObjectives())[FaultTolerance]; !almostEqual(got, want) {
		t.Errorf("fft(threeRacks) = %v, want %v", got, want)
	}

	if ideal := newEvalContext(s, 1).ideal(3)[FaultTolerance]; !almostEqual(ideal, 3) {
		t.Errorf("fft* = %v, want 3", ideal)
	}
}

func TestFaultToleranceSingleRackClusterScoresRackTermOne(t *testing.T) {
	s := paperCluster(3, 1)
	sel := []Media{*findMedia(s, "node1:hdd0"), *findMedia(s, "node2:hdd0")}
	// tiers=1/min(2,3), nodes=2/min(2,3), rack term = 1 since t=1.
	want := 0.5 + 1.0 + 1.0
	if got := newEvalContext(s, 1).vector(sel, AllObjectives())[FaultTolerance]; !almostEqual(got, want) {
		t.Errorf("fft(single rack) = %v, want %v", got, want)
	}
}

func TestThroughputObjective(t *testing.T) {
	s := paperCluster(2, 1)
	mem := *findMedia(s, "node1:mem0")
	hdd := *findMedia(s, "node2:hdd0")

	got := newEvalContext(s, 1).vector([]Media{mem, hdd}, AllObjectives())[ThroughputMax]
	logMax := math.Log(memWrite)
	want := math.Log(memWrite)/logMax + math.Log(hddWrite)/logMax
	if !almostEqual(got, want) {
		t.Errorf("ftm = %v, want %v", got, want)
	}

	// Ideal (Eq. 8): |m|.
	if ideal := newEvalContext(s, 1).ideal(2)[ThroughputMax]; !almostEqual(ideal, 2) {
		t.Errorf("ftm* = %v, want 2", ideal)
	}
	// Memory media achieve the per-replica maximum of 1.
	single := newEvalContext(s, 1).vector([]Media{mem}, AllObjectives())[ThroughputMax]
	if !almostEqual(single, 1) {
		t.Errorf("ftm(mem) = %v, want 1", single)
	}
}

func TestThroughputObjectiveClampsSlowMedia(t *testing.T) {
	s := paperCluster(1, 1)
	slow := *findMedia(s, "node1:hdd0")
	slow.WriteThruMBps = 0.25 // would be log-negative without clamping
	got := newEvalContext(s, 1).vector([]Media{slow}, AllObjectives())[ThroughputMax]
	if got != 0 {
		t.Errorf("ftm(0.25MB/s media) = %v, want 0 (clamped)", got)
	}
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("ftm produced non-finite value %v", got)
	}
}

func TestScoreIsZeroForIdealSelection(t *testing.T) {
	// Construct a selection that attains every ideal: fresh cluster
	// (all media same Rem% = 1, conns = 0), memory media on distinct
	// nodes/tiers... A single memory replica attains all four ideals.
	s := paperCluster(3, 1)
	mem := []Media{*findMedia(s, "node1:mem0")}
	got := newEvalContext(s, 0).score(mem, AllObjectives(), NormL2)
	// fdb: Rem% = 1 = ideal (block size 0); flb: 1 = ideal;
	// fft: 1/1 + 1/1 + 1 = 3 = ideal; ftm: 1 = ideal.
	if !almostEqual(got, 0) {
		t.Errorf("Score(ideal single memory replica) = %v, want 0", got)
	}
}

func TestScoreNorms(t *testing.T) {
	s := paperCluster(3, 1)
	sel := []Media{*findMedia(s, "node1:hdd0")}
	l2 := newEvalContext(s, 0).score(sel, AllObjectives(), NormL2)
	l1 := newEvalContext(s, 0).score(sel, AllObjectives(), NormL1)
	if l2 <= 0 || l1 <= 0 {
		t.Fatalf("scores must be positive for a non-ideal selection: l2=%v l1=%v", l2, l1)
	}
	if l1 < l2 {
		t.Errorf("L1 norm %v < L2 norm %v; expected L1 >= L2", l1, l2)
	}
}

func TestObjectiveString(t *testing.T) {
	names := map[Objective]string{
		DataBalancing: "DB", LoadBalancing: "LB",
		FaultTolerance: "FT", ThroughputMax: "TM",
	}
	for o, want := range names {
		if got := o.String(); got != want {
			t.Errorf("Objective(%d).String() = %q, want %q", o, got, want)
		}
	}
	if got := Objective(99).String(); got != "OBJ(?)" {
		t.Errorf("unknown objective String() = %q", got)
	}
}

func TestSnapshotDerivedStats(t *testing.T) {
	s := paperCluster(9, 3)
	if got := s.NumTiers(); got != 3 {
		t.Errorf("NumTiers() = %d, want 3", got)
	}
	if got := s.NumWorkers(); got != 9 {
		t.Errorf("NumWorkers() = %d, want 9", got)
	}
	if got := s.MaxWriteThru(); !almostEqual(got, memWrite) {
		t.Errorf("MaxWriteThru() = %v, want %v", got, memWrite)
	}
	if got := s.MinConnections(); got != 0 {
		t.Errorf("MinConnections() = %d, want 0", got)
	}
	findMedia(s, "node1:hdd0").Connections = 7
	if got := s.MinConnections(); got != 0 {
		t.Errorf("MinConnections() after one busy media = %d, want 0", got)
	}
	if got := s.MaxRemainingPercent(); !almostEqual(got, 1) {
		t.Errorf("MaxRemainingPercent() = %v, want 1", got)
	}
	if _, ok := s.MediaByID("node1:ssd0"); !ok {
		t.Error("MediaByID(node1:ssd0) not found")
	}
	if _, ok := s.MediaByID("nope"); ok {
		t.Error("MediaByID(nope) unexpectedly found")
	}
}

func TestMediaRemainingPercent(t *testing.T) {
	if got := (Media{Capacity: 0, Remaining: 5}).RemainingPercent(); got != 0 {
		t.Errorf("zero-capacity RemainingPercent() = %v, want 0", got)
	}
	if got := (Media{Capacity: 100, Remaining: 25}).RemainingPercent(); !almostEqual(got, 0.25) {
		t.Errorf("RemainingPercent() = %v, want 0.25", got)
	}
}
