// Command benchmark is the repository's one benchmark: four
// closed-loop workloads against a live in-process OctopusFS cluster,
// a handful of end-to-end metrics measured with tracing off, and a
// traced run that attributes the same workload's wall time to layers.
// BENCHMARK.json at the repository root names the workloads, the
// metrics and the bound by which each end-to-end metric may worsen;
// README.md in this directory explains every choice.
//
//	go run ./benchmark -workload dfsio_write -seed 1
//	go run ./benchmark -workload slive_mix -seed 1 -trace 1
//	go run ./benchmark -selfcheck
//
// The last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}; everything above it is
// the human-readable report. The exit code is non-zero when any
// operation failed, any content check mismatched, or a metric named in
// BENCHMARK.json was not produced.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames))
		seed         = flag.Int64("seed", 1, "seed for file content, the Zipf stream and the op-mix stream")
		seconds      = flag.Int("seconds", 25, "measured seconds: one 5 s pass per 5 s (shorter values give one pass)")
		traced       = flag.Int("trace", 0, "1 = traced run emitting the per-layer metrics; 0 = end-to-end metrics")
		selfcheck    = flag.Bool("selfcheck", false, "run the untraced set twice and fail if any end-to-end metric differs by more than its bound")
		workdir      = flag.String("workdir", ".bench_build", "directory for cluster data and result files (created, cleaned per run)")
		specPath     = flag.String("spec", "BENCHMARK.json", "benchmark definition to check the produced metric set against")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fatalf("%v", err)
	}
	if *selfcheck {
		names := workloadNames
		if *workloadName != "" {
			names = []string{*workloadName}
		}
		if !runSelfcheck(spec, names, *seed, *seconds, *workdir) {
			os.Exit(1)
		}
		return
	}
	if *traced != 0 && *traced != 1 {
		fatalf("-trace must be 0 or 1")
	}
	res, err := run(runConfig{
		Workload: *workloadName,
		Seed:     *seed,
		Traced:   *traced == 1,
		Size:     fullSize(*seconds),
		WorkDir:  *workdir,
	})
	if err != nil {
		fatalf("%v", err)
	}
	res.print(os.Stdout)
	want := spec.EndToEnd
	if res.Traced {
		want = spec.PerLayer
	}
	missing := res.missing(want)
	for _, name := range missing {
		fmt.Fprintf(os.Stderr, "benchmark: metric %q named in %s was not produced\n", name, *specPath)
	}
	outDir := filepath.Join(*workdir, "out")
	if err := res.writeFiles(outDir); err != nil {
		fatalf("%v", err)
	}
	ok := res.Correct && len(missing) == 0
	if !ok {
		// A run with failures prints its report but no result line: a
		// result the driver could parse must mean every op succeeded.
		fmt.Fprintf(os.Stderr, "benchmark: FAILED: %d of %d operations failed or mismatched\n", res.Failed, res.Attempted)
		os.Exit(1)
	}
	line, err := json.Marshal(res.contractLine(want))
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// runSelfcheck runs every named workload untraced twice with the same
// seed on this binary and reports, per end-to-end metric, how far the
// second run moved in the metric's worse direction. It returns false
// when a move exceeds the metric's bound or a run fails.
func runSelfcheck(spec benchSpec, names []string, seed int64, seconds int, workdir string) bool {
	ok := true
	for _, name := range names {
		var runs [2]*result
		for i := range runs {
			res, err := run(runConfig{Workload: name, Seed: seed, Size: fullSize(seconds), WorkDir: workdir})
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: selfcheck %s: %v\n", name, err)
				return false
			}
			if !res.Correct {
				fmt.Printf("%-18s run %d: %d of %d operations failed\n", name, i+1, res.Failed, res.Attempted)
				ok = false
			}
			runs[i] = res
		}
		for _, def := range spec.EndToEnd {
			a, b := runs[0].Metrics[def.Name], runs[1].Metrics[def.Name]
			worse := worsening(def, a.Value, b.Value)
			verdict := "ok"
			if worse > def.Bound {
				verdict = "EXCEEDS BOUND"
				ok = false
			}
			fmt.Printf("%-18s %-12s first %12.4f second %12.4f %-6s worse by %+6.2f%% (bound %.0f%%) %s\n",
				name, def.Name, a.Value, b.Value, def.Unit, worse*100, def.Bound*100, verdict)
		}
	}
	return ok
}

// worsening is the share of a by which b is worse, in the metric's own
// direction; negative when b is better.
func worsening(def metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if def.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// benchSpec is the part of BENCHMARK.json the program itself uses.
type benchSpec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (benchSpec, error) {
	var spec benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, fmt.Errorf("reading benchmark definition (run from the repository root): %w", err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(spec.EndToEnd) == 0 || len(spec.PerLayer) == 0 {
		return spec, fmt.Errorf("%s names no metrics", path)
	}
	return spec, nil
}

// missing lists the wanted metric names the run did not produce.
func (r *result) missing(want []metricDef) []string {
	var out []string
	for _, def := range want {
		if _, ok := r.Metrics[def.Name]; !ok {
			out = append(out, def.Name)
		}
	}
	sort.Strings(out)
	return out
}
