package metrics

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestRegisterRuntimeGauges(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeGauges(r, "octopus_test", time.Now().Add(-3*time.Second))

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, name := range []string{
		"octopus_test_goroutines",
		"octopus_test_heap_inuse_bytes",
		"octopus_test_gc_pause_seconds_total",
		"octopus_test_uptime_seconds",
	} {
		if !strings.Contains(out, "# TYPE "+name+" gauge") {
			t.Errorf("exposition missing gauge %s:\n%s", name, out)
		}
	}
	// Values must be sampled live: a process always has goroutines,
	// a heap, and (here) at least ~3s of uptime.
	if !strings.Contains(out, "octopus_test_goroutines ") {
		t.Fatalf("no goroutines sample:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "octopus_test_goroutines "),
			strings.HasPrefix(line, "octopus_test_heap_inuse_bytes "):
			if strings.HasSuffix(line, " 0") {
				t.Errorf("gauge sampled as zero: %q", line)
			}
		case strings.HasPrefix(line, "octopus_test_uptime_seconds "):
			v, err := strconv.ParseFloat(strings.TrimSpace(line[len("octopus_test_uptime_seconds "):]), 64)
			if err != nil || v < 2.5 {
				t.Errorf("uptime %q, want >= 2.5s", line)
			}
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{0.01, 0.1, 1})
	if got := h.quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	// 100 observations uniformly in (0, 0.01]: p50 interpolates to
	// the middle of the first bucket.
	for i := 0; i < 100; i++ {
		h.Observe(0.005)
	}
	if got := h.quantile(0.5); math.Abs(got-0.005) > 1e-9 {
		t.Errorf("p50 = %v, want 0.005", got)
	}
	// Add 100 in (0.01, 0.1]: p75 lands in the second bucket.
	for i := 0; i < 100; i++ {
		h.Observe(0.05)
	}
	p75 := h.quantile(0.75)
	if p75 <= 0.01 || p75 > 0.1 {
		t.Errorf("p75 = %v, want within (0.01, 0.1]", p75)
	}
	// An observation beyond the last bound clamps to it.
	h.Observe(50)
	if got := h.quantile(1); got != 1 {
		t.Errorf("p100 with +Inf outlier = %v, want clamp to 1", got)
	}
	// Snapshot exposes merge-ready state.
	upper, cum, count, sum := h.Snapshot()
	if len(upper) != 3 || len(cum) != 3 || count != 201 || sum <= 0 {
		t.Errorf("Snapshot = (%v, %v, %d, %v)", upper, cum, count, sum)
	}
	if got := QuantileFromBuckets(nil, nil, 0, 0.5); got != 0 {
		t.Errorf("degenerate QuantileFromBuckets = %v", got)
	}
}
