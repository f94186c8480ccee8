// Command octopus-bench regenerates the tables and figures of the
// OctopusFS paper's evaluation (§7).
//
// Usage:
//
//	octopus-bench [table2|table3|fig2|fig3|fig4|fig5|fig6|fig7|ablation|all]
//
// Simulator-backed experiments (fig2–fig7) run the paper's full data
// sizes in seconds; table2 and table3 run against live in-process
// components and take a little longer. This command reproduces the
// paper; how fast this implementation is gets measured by the repo
// benchmark (benchmark/README.md).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/integration"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [table2|table3|fig2|fig3|fig4|fig5|fig6|fig7|ablation|all]\n", os.Args[0])
		flag.PrintDefaults()
	}
	scale := flag.Int64("scale-mb", 0, "override experiment data size in MB (0 = paper size)")
	flag.Parse()

	targets := flag.Args()
	if len(targets) == 0 {
		targets = []string{"all"}
	}
	want := map[string]bool{}
	for _, t := range targets {
		want[t] = true
	}
	all := want["all"]
	out := os.Stdout

	fail := func(what string, err error) {
		fmt.Fprintf(os.Stderr, "octopus-bench: %s: %v\n", what, err)
		os.Exit(1)
	}

	if all || want["table2"] {
		rows, err := bench.RunTable2(0)
		if err != nil {
			fail("table2", err)
		}
		bench.PrintTable2(out, rows)
	}
	if all || want["fig2"] {
		points, err := bench.RunFig2(*scale)
		if err != nil {
			fail("fig2", err)
		}
		bench.PrintFig2(out, points)
	}
	if all || want["fig3"] || want["fig4"] {
		series, err := bench.RunFig3(*scale * 4)
		if err != nil {
			fail("fig3", err)
		}
		if all || want["fig3"] {
			bench.PrintFig3(out, series)
		}
		if all || want["fig4"] {
			bench.PrintFig4(out, series)
		}
	}
	if all || want["fig5"] {
		points, err := bench.RunFig5(*scale)
		if err != nil {
			fail("fig5", err)
		}
		bench.PrintFig5(out, points)
	}
	if all || want["table3"] {
		dir, cleanup, err := integration.TempDir()
		if err != nil {
			fail("table3", err)
		}
		rows, err := bench.RunTable3(dir, 4, 150)
		cleanup()
		if err != nil {
			fail("table3", err)
		}
		bench.PrintTable3(out, rows)
	}
	if all || want["fig6"] {
		rows, err := bench.RunFig6()
		if err != nil {
			fail("fig6", err)
		}
		bench.PrintFig6(out, rows)
	}
	if all || want["fig7"] {
		rows, err := bench.RunFig7()
		if err != nil {
			fail("fig7", err)
		}
		bench.PrintFig7(out, rows)
	}
	if all || want["ablation"] {
		rows, err := bench.RunAblation(*scale * 4)
		if err != nil {
			fail("ablation", err)
		}
		bench.PrintAblation(out, rows)
	}
}
