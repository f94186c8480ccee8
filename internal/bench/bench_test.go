package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

// fig2At finds one Figure 2 cell.
func fig2At(points []Fig2Point, v core.ReplicationVector, d int) Fig2Point {
	for _, p := range points {
		if p.Vector == v && p.D == d {
			return p
		}
	}
	return Fig2Point{}
}

func TestFig2Shapes(t *testing.T) {
	points, err := RunFig2(2048)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 30 {
		t.Fatalf("points = %d, want 30", len(points))
	}
	mem3 := core.NewReplicationVector(3, 0, 0, 0, 0)
	hdd3 := core.NewReplicationVector(0, 0, 3, 0, 0)
	mixed := core.NewReplicationVector(1, 1, 1, 0, 0)

	for _, d := range Parallelisms() {
		m, h := fig2At(points, mem3, d), fig2At(points, hdd3, d)
		// All-memory beats all-HDD at every parallelism.
		if m.WriteMBps <= h.WriteMBps {
			t.Errorf("d=%d: memory write %.1f <= hdd %.1f", d, m.WriteMBps, h.WriteMBps)
		}
		if m.ReadMBps <= h.ReadMBps {
			t.Errorf("d=%d: memory read %.1f <= hdd %.1f", d, m.ReadMBps, h.ReadMBps)
		}
	}
	// Memory write rate per task declines with parallelism (network
	// congestion, §7.1).
	if a, b := fig2At(points, mem3, 9), fig2At(points, mem3, 45); a.WriteMBps <= b.WriteMBps {
		t.Errorf("memory write did not decline with d: %.1f (d=9) vs %.1f (d=45)", a.WriteMBps, b.WriteMBps)
	}
	// Mixed-tier writes are HDD-bottlenecked at d=9 (pipeline min).
	if p := fig2At(points, mixed, 9); p.WriteMBps > 130 {
		t.Errorf("mixed vector at d=9 wrote %.1f MB/s, want HDD-bound (~126)", p.WriteMBps)
	}
	// At high d, mixed tiers beat all-HDD (paper: up to 2x).
	if m, h := fig2At(points, mixed, 45), fig2At(points, hdd3, 45); m.WriteMBps <= h.WriteMBps {
		t.Errorf("d=45: mixed write %.1f <= hdd %.1f, want multi-tier benefit", m.WriteMBps, h.WriteMBps)
	}
}

func TestFig3Shapes(t *testing.T) {
	// Full paper scale (40 GB): the memory-exhaustion behaviour of the
	// TM policy and the SSD benefit of HDFS+SSD only appear once the
	// write volume exceeds the memory tier. The simulator covers this
	// in well under a second.
	series, err := RunFig3(0)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig3Series{}
	for _, s := range series {
		byName[s.Policy] = s
	}
	for _, name := range []string{"DB", "LB", "FT", "TM", "MOOP", "RuleBased", "OriginalHDFS", "HDFSwithSSD"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("missing series %q", name)
		}
	}
	moop, hdfs, hdfsSSD := byName["MOOP"], byName["OriginalHDFS"], byName["HDFSwithSSD"]
	rule := byName["RuleBased"]

	// Paper §7.2 relationships.
	if moop.AvgWriteMBps <= hdfs.AvgWriteMBps {
		t.Errorf("MOOP write %.1f <= OriginalHDFS %.1f", moop.AvgWriteMBps, hdfs.AvgWriteMBps)
	}
	if moop.AvgWriteMBps <= rule.AvgWriteMBps {
		t.Errorf("MOOP write %.1f <= RuleBased %.1f", moop.AvgWriteMBps, rule.AvgWriteMBps)
	}
	if hdfsSSD.AvgWriteMBps <= hdfs.AvgWriteMBps {
		t.Errorf("HDFS+SSD write %.1f <= OriginalHDFS %.1f", hdfsSSD.AvgWriteMBps, hdfs.AvgWriteMBps)
	}
	if moop.AvgReadMBps <= 1.5*hdfs.AvgReadMBps {
		t.Errorf("MOOP read %.1f not >= 1.5x OriginalHDFS %.1f (paper: 2.1x)", moop.AvgReadMBps, hdfs.AvgReadMBps)
	}
	// DB is biased toward the HDD tier (Figure 4): the HDD tier ends
	// up with less remaining capacity than under TM, which avoids it.
	db, tm := byName["DB"], byName["TM"]
	if db.RemainingPercent[core.TierHDD] >= tm.RemainingPercent[core.TierHDD] {
		t.Errorf("DB hdd remaining %.1f%% >= TM %.1f%%", db.RemainingPercent[core.TierHDD], tm.RemainingPercent[core.TierHDD])
	}
	// TM exhausts the memory tier (paper: "throughput quickly degrades
	// as the memory space gets exhausted").
	if tm.RemainingPercent[core.TierMemory] > 5 {
		t.Errorf("TM left %.1f%% memory, want ~0", tm.RemainingPercent[core.TierMemory])
	}
	// Original HDFS never touches memory or SSD.
	if hdfs.RemainingPercent[core.TierMemory] < 99.9 || hdfs.RemainingPercent[core.TierSSD] < 99.9 {
		t.Errorf("OriginalHDFS used memory/SSD: %+v", hdfs.RemainingPercent)
	}
}

func TestFig5Shapes(t *testing.T) {
	points, err := RunFig5(2048)
	if err != nil {
		t.Fatal(err)
	}
	speedups := map[int]float64{}
	vals := map[int]map[string]float64{}
	for _, p := range points {
		if vals[p.D] == nil {
			vals[p.D] = map[string]float64{}
		}
		vals[p.D][p.Policy] = p.ReadMBps
	}
	for d, v := range vals {
		if v["HDFS"] <= 0 {
			t.Fatalf("d=%d: HDFS read rate %v", d, v["HDFS"])
		}
		speedups[d] = v["OctopusFS"] / v["HDFS"]
		// OctopusFS retrieval must beat locality-only HDFS everywhere.
		if speedups[d] < 1.2 {
			t.Errorf("d=%d: speedup %.2fx, want >= 1.2x", d, speedups[d])
		}
	}
	// The benefit shrinks as parallelism grows (paper: ~4x -> ~2x).
	if speedups[9] <= speedups[45] {
		t.Errorf("speedup did not shrink with d: %.2fx (d=9) vs %.2fx (d=45)", speedups[9], speedups[45])
	}
}

func TestTable2ProbesMatchTargets(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	rows, err := RunTable2(16 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %+v, want Memory, SSD, HDD", rows)
	}
	// What a throttle promises holds whatever the host's speed: the wall
	// rate is never above the target, and the limiter never schedules
	// more waiting than the target demands. How far below the target a
	// loaded host lands — and so whether memory outruns SSD on the wall
	// clock — is the benchmark's storage.*_mbps.* to report.
	const tolerance = 1.6
	for _, r := range rows {
		if r.WriteMBps > r.TargetW*tolerance || r.ReadMBps > r.TargetR*tolerance {
			t.Errorf("%s probe (w %.1f, r %.1f MB/s) runs above its throttle (w %.1f, r %.1f)",
				r.Media, r.WriteMBps, r.ReadMBps, r.TargetW, r.TargetR)
		}
		if r.SchedW < r.TargetW/tolerance || r.SchedR < r.TargetR/tolerance {
			t.Errorf("%s limiter schedule (w %.1f, r %.1f MB/s) is slower than its target (w %.1f, r %.1f)",
				r.Media, r.SchedW, r.SchedR, r.TargetW, r.TargetR)
		}
	}
}

func TestFig6AllWorkloadsGain(t *testing.T) {
	rows, err := RunFig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 18 {
		t.Fatalf("rows = %d, want 18", len(rows))
	}
	for _, r := range rows {
		if r.Normalized > 1.0+1e-9 {
			t.Errorf("%s/%s: normalized %.2f > 1 (OctopusFS slower)", r.Engine, r.Workload, r.Normalized)
		}
		if r.Normalized < 0.2 {
			t.Errorf("%s/%s: normalized %.2f implausibly low", r.Engine, r.Workload, r.Normalized)
		}
	}
}

func TestFig7OptimisationsCompose(t *testing.T) {
	rows, err := RunFig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		n := r.Normalized
		if n["OctopusFS"] >= 1 {
			t.Errorf("%s: plain OctopusFS %.2f >= HDFS", r.Workload, n["OctopusFS"])
		}
		if n["Octo+prefetch"] > n["OctopusFS"]+1e-9 {
			t.Errorf("%s: prefetch %.3f worse than plain %.3f", r.Workload, n["Octo+prefetch"], n["OctopusFS"])
		}
		if n["Octo+interm"] > n["OctopusFS"]+1e-9 {
			t.Errorf("%s: interm %.3f worse than plain %.3f", r.Workload, n["Octo+interm"], n["OctopusFS"])
		}
		if n["Octo+both"] > math.Min(n["Octo+prefetch"], n["Octo+interm"])+1e-9 {
			t.Errorf("%s: both %.3f worse than best single optimisation", r.Workload, n["Octo+both"])
		}
	}
}

func TestPrintersProduceOutput(t *testing.T) {
	points, err := RunFig2(1024)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	PrintFig2(&buf, points)
	if !strings.Contains(buf.String(), "Figure 2") {
		t.Error("PrintFig2 missing header")
	}

	series, err := RunFig3(2048)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	PrintFig3(&buf, series)
	PrintFig4(&buf, series)
	out := buf.String()
	if !strings.Contains(out, "Figure 3") || !strings.Contains(out, "Figure 4") {
		t.Error("fig3/fig4 printers missing headers")
	}

	fig5, err := RunFig5(1024)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	PrintFig5(&buf, fig5)
	if !strings.Contains(buf.String(), "speedup") {
		t.Error("PrintFig5 missing speedup column")
	}
}

func TestTable3WithinTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster benchmark")
	}
	rows, err := RunTable3(t.TempDir(), 2, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(workloads.SLiveOps()) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.HDFSOpsPerSec <= 0 || r.OctoOpsPerSec <= 0 {
			t.Errorf("%s: non-positive rates %+v", r.Op, r)
		}
	}
	var buf bytes.Buffer
	PrintTable3(&buf, rows)
	if !strings.Contains(buf.String(), "Table 3") {
		t.Error("PrintTable3 missing header")
	}
}

func TestAblationShapes(t *testing.T) {
	rows, err := RunAblation(0)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Variant] = r
	}
	full := byName["MOOP (full)"]
	if full.AvgWriteMBps <= 0 {
		t.Fatal("full MOOP produced no throughput")
	}
	// Dropping connection awareness (the LB objective) must hurt
	// write throughput noticeably — the statistic-driven edge the
	// paper demonstrates against the rule-based policy.
	noLB := byName["no load-awareness"]
	if noLB.AvgWriteMBps >= full.AvgWriteMBps*0.95 {
		t.Errorf("removing load awareness barely hurt: %.1f vs %.1f", noLB.AvgWriteMBps, full.AvgWriteMBps)
	}
	// The fault-tolerance heuristics (rack pruning, collocation) trade
	// a little raw bandwidth for placement quality; they must not
	// change throughput drastically on this workload.
	for _, name := range []string{"no rack pruning", "no collocation", "L1 norm"} {
		r := byName[name]
		if r.AvgWriteMBps < full.AvgWriteMBps*0.85 || r.AvgWriteMBps > full.AvgWriteMBps*1.15 {
			t.Errorf("%s write %.1f deviates more than 15%% from full %.1f", name, r.AvgWriteMBps, full.AvgWriteMBps)
		}
	}
}
