package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricValue is one reported number. Passes, Min and Max are present
// for metrics taken once per measured pass (Value is then their
// median); probes and end-of-run counts carry Value alone.
type metricValue struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Passes []float64 `json:"passes,omitempty"`
	Min    float64   `json:"min,omitempty"`
	Max    float64   `json:"max,omitempty"`
	// Samples is the number of timed samples behind a latency quantile,
	// summed over the passes.
	Samples int `json:"samples,omitempty"`
}

// provenance is the envelope every result carries, so two result files
// can be compared knowing what produced them.
type provenance struct {
	Commit      string  `json:"commit"`
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NProc       int     `json:"nproc"`
	CPUModel    string  `json:"cpu_model"`
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Traced      bool    `json:"traced"`
	Clients     int     `json:"clients"`
	PassSeconds float64 `json:"pass_seconds"`
	Passes      int     `json:"passes"`
	WarmupSecs  float64 `json:"warmup_seconds"`
	Setups      int     `json:"setups"`
}

// result is one benchmark run.
type result struct {
	provenance
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Budget is the traced run's attribution of iteration wall time to
	// layers (shares of 1, self time only).
	Budget map[string]float64 `json:"budget,omitempty"`

	spans     []span
	spanTotal int
}

func newResult(cfg runConfig) *result {
	return &result{
		provenance: provenance{
			Commit:      gitCommit(),
			GoVersion:   runtime.Version(),
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			NProc:       runtime.NumCPU(),
			CPUModel:    cpuModel(),
			Workload:    cfg.Workload,
			Seed:        cfg.Seed,
			Traced:      cfg.Traced,
			Clients:     numClients,
			PassSeconds: cfg.Size.passLen.Seconds(),
			WarmupSecs:  cfg.Size.warmup.Seconds(),
			Setups:      cfg.Size.setups,
		},
		Correct: true,
		Metrics: make(map[string]metricValue),
	}
}

// put records a single-valued metric.
func (r *result) put(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

// putPasses records a per-pass metric: the value is the median of the
// passes, and the passes themselves stay in the result.
func (r *result) putPasses(name, unit string, passes []float64, samples int) {
	sorted := append([]float64(nil), passes...)
	sort.Float64s(sorted)
	mv := metricValue{Unit: unit, Passes: passes, Samples: samples}
	if len(sorted) > 0 {
		mv.Value, mv.Min, mv.Max = median(sorted), sorted[0], sorted[len(sorted)-1]
	}
	r.Metrics[name] = mv
}

// gitCommit asks git for the checked-out commit; outside a git
// checkout (the driver's) the commit is unknown.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
		commit += "+dirty"
	}
	return commit
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// print renders the human-readable report: envelope, every metric by
// name with unit (per-pass values where taken), and the budget table.
func (r *result) print(w io.Writer) {
	mode := "end-to-end (tracing off)"
	if r.Traced {
		mode = "traced (per-layer)"
	}
	fmt.Fprintf(w, "workload %s  seed %d  %s\n", r.Workload, r.Seed, mode)
	fmt.Fprintf(w, "commit %s  %s  GOMAXPROCS %d  nproc %d  cpu %q\n",
		r.Commit, r.GoVersion, r.GOMAXPROCS, r.NProc, r.CPUModel)
	fmt.Fprintf(w, "%d closed-loop clients  %d set-ups  %.1fs warm-up  %d measured passes of %.1fs\n",
		r.Clients, r.Setups, r.WarmupSecs, r.Passes, r.PassSeconds)
	fmt.Fprintf(w, "operations attempted %d  failed %d\n\n", r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mv := r.Metrics[name]
		fmt.Fprintf(w, "%-44s %14.4f %-8s", name, mv.Value, mv.Unit)
		if len(mv.Passes) > 0 {
			fmt.Fprintf(w, " min %.4f max %.4f passes %s", mv.Min, mv.Max, fmtFloats(mv.Passes))
		}
		if mv.Samples > 0 {
			fmt.Fprintf(w, " samples %d", mv.Samples)
		}
		fmt.Fprintln(w)
	}
	if len(r.Budget) > 0 {
		fmt.Fprintf(w, "\nbudget: of one iteration's wall time (self time, span minus children)\n")
		cats := make([]string, 0, len(r.Budget))
		sum := 0.0
		for c, v := range r.Budget {
			cats = append(cats, c)
			sum += v
		}
		sort.Slice(cats, func(i, j int) bool { return r.Budget[cats[i]] > r.Budget[cats[j]] })
		for _, c := range cats {
			fmt.Fprintf(w, "  %-16s %6.2f%%\n", c, r.Budget[c]*100)
		}
		fmt.Fprintf(w, "  %-16s %6.2f%%\n", "(sum)", sum*100)
	}
	fmt.Fprintln(w)
}

func fmtFloats(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.4f", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// contractLine is the object the driver parses: the wanted metrics
// only, each as value and unit.
func (r *result) contractLine(want []metricDef) map[string]any {
	ms := make(map[string]map[string]any, len(want))
	for _, def := range want {
		mv := r.Metrics[def.Name]
		ms[def.Name] = map[string]any{"value": mv.Value, "unit": mv.Unit}
	}
	return map[string]any{
		"correct":   r.Correct,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   ms,
	}
}

// maxSpansWritten caps the span file; a traced slive_mix run records
// several hundred thousand spans and the file is for reading, not for
// the metrics (those are computed from all spans in memory).
const maxSpansWritten = 100000

// writeFiles stores the full result (envelope, per-pass values) and,
// for a traced run, the spans, under dir. File names are per workload
// and mode, so repeated runs overwrite instead of piling up.
func (r *result) writeFiles(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	suffix := ".result.json"
	if r.Traced {
		suffix = ".trace.result.json"
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, r.Workload+suffix), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if !r.Traced {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, r.Workload+".spans.json"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	n := min(len(r.spans), maxSpansWritten)
	fmt.Fprintf(bw, "{\"workload\":%q,\"seed\":%d,\"spans_recorded\":%d,\"spans_written\":%d,\"spans\":[\n", r.Workload, r.Seed, r.spanTotal, n)
	enc := json.NewEncoder(bw)
	for i := 0; i < n; i++ {
		if i > 0 {
			bw.WriteByte(',')
		}
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	bw.WriteString("]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// median of an ascending slice (mean of the middle two when even).
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of an ascending slice: every
// returned value was observed.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}
