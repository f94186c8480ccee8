package sim

import (
	"math"
	"testing"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSingleFlowSingleResource(t *testing.T) {
	e := NewEngine()
	r := &Resource{Name: "disk", Capacity: 100} // 100 MB/s
	done := false
	e.StartFlow("f", 500, []*Resource{r}, func(*Engine) { done = true })
	elapsed, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(elapsed, 5, 1e-9) {
		t.Errorf("elapsed = %v, want 5s (500MB at 100MB/s)", elapsed)
	}
	if !done {
		t.Error("completion callback not invoked")
	}
}

func TestFlowBottleneckedByslowestResource(t *testing.T) {
	e := NewEngine()
	fast := &Resource{Name: "mem", Capacity: 1000}
	slow := &Resource{Name: "hdd", Capacity: 100}
	e.StartFlow("f", 100, []*Resource{fast, slow}, nil)
	elapsed, _ := e.Run()
	if !almostEqual(elapsed, 1, 1e-9) {
		t.Errorf("elapsed = %v, want 1s (bottleneck 100MB/s)", elapsed)
	}
}

func TestEqualShareAmongConcurrentFlows(t *testing.T) {
	e := NewEngine()
	r := &Resource{Name: "disk", Capacity: 100}
	// Two equal flows sharing 100 MB/s: each runs at 50 => 2s for 100MB.
	e.StartFlow("a", 100, []*Resource{r}, nil)
	e.StartFlow("b", 100, []*Resource{r}, nil)
	elapsed, _ := e.Run()
	if !almostEqual(elapsed, 2, 1e-9) {
		t.Errorf("elapsed = %v, want 2s", elapsed)
	}
}

func TestShareRecomputedAfterCompletion(t *testing.T) {
	e := NewEngine()
	r := &Resource{Name: "disk", Capacity: 100}
	// a: 50MB, b: 100MB. Phase 1: both at 50MB/s until a finishes (1s,
	// b has 50MB left). Phase 2: b alone at 100MB/s (0.5s). Total 1.5s.
	var aDone, bDone float64
	e.StartFlow("a", 50, []*Resource{r}, func(e *Engine) { aDone = e.Now() })
	e.StartFlow("b", 100, []*Resource{r}, func(e *Engine) { bDone = e.Now() })
	elapsed, _ := e.Run()
	if !almostEqual(aDone, 1, 1e-6) {
		t.Errorf("a done at %v, want 1s", aDone)
	}
	if !almostEqual(bDone, 1.5, 1e-6) {
		t.Errorf("b done at %v, want 1.5s", bDone)
	}
	if !almostEqual(elapsed, 1.5, 1e-6) {
		t.Errorf("elapsed = %v, want 1.5s", elapsed)
	}
}

func TestCallbackChainsFlows(t *testing.T) {
	e := NewEngine()
	r := &Resource{Name: "disk", Capacity: 10}
	blocks := 0
	var writeNext func(e *Engine)
	writeNext = func(e *Engine) {
		if blocks >= 3 {
			return
		}
		blocks++
		e.StartFlow("blk", 10, []*Resource{r}, writeNext)
	}
	writeNext(e)
	elapsed, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if blocks != 3 {
		t.Errorf("wrote %d blocks, want 3", blocks)
	}
	if !almostEqual(elapsed, 3, 1e-9) {
		t.Errorf("elapsed = %v, want 3s (3 sequential 1s blocks)", elapsed)
	}
}

func TestStartDelay(t *testing.T) {
	e := NewEngine()
	fired := false
	e.StartDelay("compute", 2.5, func(*Engine) { fired = true })
	elapsed, _ := e.Run()
	if !almostEqual(elapsed, 2.5, 1e-9) || !fired {
		t.Errorf("elapsed = %v fired=%v", elapsed, fired)
	}
}

func TestZeroSizeFlowCompletesInstantly(t *testing.T) {
	e := NewEngine()
	r := &Resource{Name: "disk", Capacity: 10}
	done := false
	e.StartFlow("empty", 0, []*Resource{r}, func(*Engine) { done = true })
	elapsed, err := e.Run()
	if err != nil || !done || elapsed > 1e-9 {
		t.Errorf("elapsed=%v done=%v err=%v", elapsed, done, err)
	}
	if r.Load() != 0 {
		t.Errorf("resource still loaded: %d", r.Load())
	}
}

func TestStalledFlowReportsError(t *testing.T) {
	e := NewEngine()
	dead := &Resource{Name: "dead", Capacity: 0}
	e.StartFlow("f", 10, []*Resource{dead}, nil)
	if _, err := e.Run(); err == nil {
		t.Error("zero-capacity resource: Run returned nil error")
	}
}

func TestPipelineSharedNIC(t *testing.T) {
	// Two writers on the same node share its NIC-out: each flow also
	// crosses its own dedicated disk. NIC 100 MB/s, disks 100 MB/s:
	// NIC share 50 each => 2s for 100MB each.
	e := NewEngine()
	nic := &Resource{Name: "nic", Capacity: 100}
	d1 := &Resource{Name: "d1", Capacity: 100}
	d2 := &Resource{Name: "d2", Capacity: 100}
	e.StartFlow("w1", 100, []*Resource{nic, d1}, nil)
	e.StartFlow("w2", 100, []*Resource{nic, d2}, nil)
	elapsed, _ := e.Run()
	if !almostEqual(elapsed, 2, 1e-9) {
		t.Errorf("elapsed = %v, want 2s (NIC shared)", elapsed)
	}
}

// Flows that finish at the same instant under the same name complete in
// the order they were started, so a run is reproducible.
func TestSameNamedFlowsCompleteInStartOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 32; i++ {
		e.StartFlow("w", 10, []*Resource{{Name: "disk", Capacity: 100}}, func(*Engine) { order = append(order, i) })
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("completion order = %v, want start order", order)
		}
	}
}
