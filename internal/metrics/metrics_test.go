package metrics

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "", nil)
	c.Inc()
	c.Add(2.5)
	c.Add(-5) // ignored: counters are monotone
	if got := c.Value(); got != 3.5 {
		t.Errorf("counter = %v, want 3.5", got)
	}
	if again := r.Counter("c_total", "", nil); again != c {
		t.Error("same name+labels returned a different counter")
	}

	g := r.Gauge("g", "", Labels{"x": "1"})
	g.Set(10)
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Errorf("gauge = %v, want 6", got)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 2, 5}, nil)

	// Boundary cases: exactly on a bound counts into that bucket
	// (le is inclusive), above the top bound counts only in +Inf.
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 5, 7} {
		h.Observe(v)
	}
	cum, count, sum := h.snapshot()
	if want := []uint64{2, 4, 5}; cum[0] != want[0] || cum[1] != want[1] || cum[2] != want[2] {
		t.Errorf("cumulative buckets = %v, want %v", cum, want)
	}
	if count != 6 {
		t.Errorf("count = %d, want 6", count)
	}
	if math.Abs(sum-16.5000001) > 1e-6 {
		t.Errorf("sum = %v, want ~16.5", sum)
	}
}

func TestHistogramUnsortedBucketsAreSorted(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{5, 1, 2}, nil)
	h.Observe(1.5)
	cum, _, _ := h.snapshot()
	if cum[0] != 0 || cum[1] != 1 || cum[2] != 1 {
		t.Errorf("cumulative buckets = %v, want [0 1 1]", cum)
	}
}

// TestConcurrentUpdates exercises every metric kind from many
// goroutines; run under -race this doubles as the data-race check.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	ops := r.CounterVec("ops_total", "", "op")
	dur := r.HistogramVec("dur_seconds", "", []float64{0.01, 0.1, 1}, "op")
	g := r.Gauge("load", "", nil)

	const workers, iters = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			op := []string{"read", "write"}[w%2]
			for i := 0; i < iters; i++ {
				ops.With(op).Inc()
				dur.With(op).Observe(float64(i%3) * 0.05)
				g.Add(1)
				g.Add(-1)
				if i%100 == 0 {
					var sink bytes.Buffer
					r.WritePrometheus(&sink)
				}
			}
		}()
	}
	wg.Wait()

	total := ops.With("read").Value() + ops.With("write").Value()
	if total != workers*iters {
		t.Errorf("op total = %v, want %d", total, workers*iters)
	}
	if n := dur.With("read").Count() + dur.With("write").Count(); n != workers*iters {
		t.Errorf("histogram count = %d, want %d", n, workers*iters)
	}
	if v := g.Value(); v != 0 {
		t.Errorf("gauge = %v, want 0", v)
	}
}

// TestPrometheusGolden locks down the text exposition format.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("octopus_test_bytes_total", "Bytes moved.", Labels{"op": "read", "tier": "HDD"}).Add(4096)
	r.Counter("octopus_test_bytes_total", "Bytes moved.", Labels{"op": "write", "tier": "SSD"}).Add(1024)
	r.Counter("octopus_test_plain_total", "", nil).Inc()
	r.Gauge("octopus_test_workers", "Live workers.", nil).Set(3)
	r.GaugeFunc("octopus_test_remaining_bytes", "", Labels{"tier": "MEMORY"}, func() float64 { return 12.5 })
	h := r.Histogram("octopus_test_duration_seconds", "Op latency.", []float64{0.01, 0.1, 1}, Labels{"op": "read"})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(2)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "exposition.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition mismatch\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestJSONExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "help", Labels{"op": "x"}).Add(2)
	r.Histogram("h", "", []float64{1}, nil).Observe(0.5)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc []struct {
		Name    string `json:"name"`
		Type    string `json:"type"`
		Metrics []struct {
			Labels  map[string]string `json:"labels"`
			Value   *float64          `json:"value"`
			Count   *uint64           `json:"count"`
			Buckets map[string]uint64 `json:"buckets"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(doc) != 2 || doc[0].Name != "c_total" || doc[1].Name != "h" {
		t.Fatalf("unexpected families: %s", buf.String())
	}
	m := doc[0].Metrics[0]
	if m.Value == nil || *m.Value != 2 || m.Labels["op"] != "x" {
		t.Errorf("counter JSON wrong: %s", buf.String())
	}
	hm := doc[1].Metrics[0]
	if hm.Count == nil || *hm.Count != 1 || hm.Buckets["1"] != 1 || hm.Buckets["+Inf"] != 1 {
		t.Errorf("histogram JSON wrong: %s", buf.String())
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "", Labels{"path": `a"b\c` + "\n"}).Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `path="a\"b\\c\n"`) {
		t.Errorf("labels not escaped: %s", buf.String())
	}
}

func TestTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "", nil)
	defer func() {
		if recover() == nil {
			t.Error("registering x as gauge after counter did not panic")
		}
	}()
	r.Gauge("x", "", nil)
}

// TestVecWithSeenSeriesAllocatesNothing: a label tuple a vec has served
// before is a lookup, not a label map, a sort and a family lock.
func TestVecWithSeenSeriesAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	ops := r.CounterVec("ops_total", "", "op")
	dur := r.HistogramVec("dur_seconds", "", nil, "op", "tier")
	ops.With("x").Inc()
	dur.With("x", "HDD").Observe(0.1)
	if n := testing.AllocsPerRun(100, func() { ops.With("x").Inc() }); n != 0 {
		t.Errorf("CounterVec.With on a seen series: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { dur.With("x", "HDD").Observe(0.1) }); n != 0 {
		t.Errorf("HistogramVec.With on a seen series: %v allocs, want 0", n)
	}
	if got := ops.With("x").Value(); got != 102 {
		t.Errorf("counter = %v, want 102", got)
	}
	if again := r.CounterVec("ops_total", "", "op").With("x"); again != ops.With("x") {
		t.Error("a second vec over the family returned a different series")
	}
}
