package main

import (
	"math"
	"regexp"
	"strings"
	"testing"
	"time"
)

// toySize shrinks every workload until all four, untraced and traced,
// run in a few seconds. The smoke test checks presence and structure
// only — no timing thresholds — so it adds no flake to tier 1.
func toySize() size {
	return size{
		passLen: 200 * time.Millisecond, passes: 2, warmup: 50 * time.Millisecond, setups: 1,
		fileBytes: 1 << 20, blockBytes: 256 << 10, ring: 2,
		sliveFiles: 400, sliveDirs: 8,
		zipfFiles: 12, zipfMemFiles: 2, zipfSSDFiles: 5, zipfFileBytes: 64 << 10, tierMem: 4 << 20, tierSSD: 8 << 20, tierHDD: 64 << 20,
		probeReps: 3, probeNamespace: 100,
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func checkMetrics(t *testing.T, res *result, want []metricDef, nonZero bool) {
	t.Helper()
	if len(res.missing(want)) > 0 {
		t.Errorf("metrics named in BENCHMARK.json but not produced: %v", res.missing(want))
	}
	for _, def := range want {
		if !metricName.MatchString(def.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", def.Name)
		}
		mv, ok := res.Metrics[def.Name]
		if !ok {
			continue
		}
		if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
			t.Errorf("%s = %v, want a finite number", def.Name, mv.Value)
		}
		if nonZero && mv.Value <= 0 {
			t.Errorf("%s = %v, want > 0 (end-to-end metrics are never 0)", def.Name, mv.Value)
		}
		if mv.Unit != def.Unit {
			t.Errorf("%s has unit %q, BENCHMARK.json says %q", def.Name, mv.Unit, def.Unit)
		}
	}
}

func TestSmoke(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			cfg := runConfig{Workload: name, Seed: 7, Size: toySize(), WorkDir: t.TempDir()}
			res, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Metrics["failed_frac"].Value != 0 {
				t.Errorf("untraced: %d of %d operations failed", res.Failed, res.Attempted)
			}
			checkMetrics(t, res, spec.EndToEnd, true)
			if got := len(res.Metrics["ops_per_s"].Passes); got != cfg.Size.passes {
				t.Errorf("ops_per_s kept %d per-pass values, want %d", got, cfg.Size.passes)
			}

			cfg.Traced = true
			res, err = run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Metrics["failed_frac"].Value != 0 {
				t.Errorf("traced: %d of %d operations failed", res.Failed, res.Attempted)
			}
			checkMetrics(t, res, spec.PerLayer, false)

			ids := make(map[int64]bool, len(res.spans))
			for i := range res.spans {
				ids[res.spans[i].ID] = true
			}
			for i := range res.spans {
				s := &res.spans[i]
				if s.Parent != 0 && !ids[s.Parent] {
					t.Fatalf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
				}
				if !ids[s.Op] {
					t.Fatalf("span %d (%s) belongs to unknown iteration %d", s.ID, s.Name, s.Op)
				}
				if s.End < s.Start {
					t.Fatalf("span %d (%s) ends before it starts", s.ID, s.Name)
				}
			}
			busy := 0.0
			for name, mv := range res.Metrics {
				if strings.HasPrefix(name, "client.") && strings.HasSuffix(name, ".busy_frac") || name == "client.other_frac" {
					busy += mv.Value
				}
			}
			if math.Abs(busy-1) > 1e-9 {
				t.Errorf("client busy fractions sum to %v, want 1", busy)
			}
			shares := 0.0
			for _, v := range res.Budget {
				if v < 0 {
					t.Errorf("budget has a negative share: %v", res.Budget)
				}
				shares += v
			}
			if len(res.Budget) == 0 || shares > 1+1e-9 {
				t.Errorf("budget shares sum to %v, want > 0 and <= 1: %v", shares, res.Budget)
			}
			if jf := res.Metrics["trace.join_frac"].Value; jf <= 0 {
				t.Errorf("trace.join_frac = %v: no iteration joined its audit and transfer records", jf)
			}
		})
	}
}

// TestBudgetNeverExceedsWall pins the attribution rule: overlapping
// and overhanging children are clipped, so self times sum to the root.
func TestBudgetNeverExceedsWall(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "iteration", Start: 0, End: 100, kind: -1},
		{ID: 2, Parent: 1, Op: 1, Name: "client.write", Start: 10, End: 90, kind: callWrite},
		{ID: 3, Parent: 2, Op: 1, Name: "rpc.write", Start: 20, End: 70},
		{ID: 4, Parent: 2, Op: 1, Name: "rpc.write", Start: 60, End: 120}, // overlaps its sibling, overhangs its parent
		{ID: 5, Parent: 3, Op: 1, Name: "worker.disk.SSD", Start: 25, End: 45},
	}
	shares, total := budget(spans)
	if total != 100 {
		t.Fatalf("total = %d, want 100", total)
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v, want exactly 1: %v", sum, shares)
	}
	want := map[string]float64{"generator": 0.20, "client": 0.10, "net": 0.50, "disk.SSD": 0.20}
	for c, v := range want {
		if math.Abs(shares[c]-v) > 1e-12 {
			t.Errorf("share of %s = %v, want %v", c, shares[c], v)
		}
	}
}
