// Command experiments reproduces the paper's tables and figures.
//
// Usage:
//
//	experiments [-scale f] [-seed n] [-exp list] [-parallel n]
//
// -exp selects experiments by id (comma-separated), from:
//
//	table1 fig1 fig2 table2 fig3 table3 fig4 table4
//	ext-agree ext-adv ext-stop ext-size ext-var ext-fed all
//
// An unknown id is an error (exit status 2), not an empty run.
//
// -scale multiplies corpus sizes (1.0 = DESIGN.md defaults; unit tests use
// smaller). Everything is deterministic for a given (-scale, -seed) pair:
// -parallel only changes how many worker goroutines independent sampling
// runs fan out over, never the numbers (0 = one per CPU, 1 = sequential).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// ids lists every -exp id, in the package doc's order.
var ids = []string{
	"table1", "fig1", "fig2", "table2", "fig3", "table3", "fig4", "table4",
	"ext-agree", "ext-adv", "ext-stop", "ext-size", "ext-var", "ext-fed", "all",
}

func main() {
	scale := flag.Float64("scale", 1.0, "corpus size multiplier")
	seed := flag.Uint64("seed", 1, "experiment seed")
	exp := flag.String("exp", "all", "comma-separated experiment ids: "+strings.Join(ids, " "))
	lightInit := flag.Bool("light-init", false,
		"draw each run's first query term from the sampled corpus's own model instead of TREC123's (faster for partial runs)")
	par := flag.Int("parallel", 0, "worker goroutines for independent runs (0 = one per CPU, 1 = sequential)")
	timing := flag.Bool("timing", false,
		"print a per-experiment wall-time table (telemetry) after the run")
	flag.Parse()

	// Runtime telemetry: per-experiment wall time, env build time, worker
	// pool utilization. Never feeds into results — it only drives the
	// -timing report.
	reg := telemetry.NewRegistry()
	parallel.SetMetrics(reg)

	suite := experiments.NewSuite(*scale, *seed)
	suite.InitialFromTREC = !*lightInit
	suite.Parallel = *par
	suite.Metrics = reg
	workers := experiments.WithWorkers(*par)
	withMetrics := experiments.WithMetrics(reg)

	want := map[string]bool{}
	for _, id := range strings.Split(*exp, ",") {
		id = strings.TrimSpace(id)
		if !slices.Contains(ids, id) {
			fmt.Fprintf(os.Stderr, "experiments: unknown -exp id %q; valid ids: %s\n", id, strings.Join(ids, " "))
			os.Exit(2)
		}
		want[id] = true
	}
	all := want["all"]
	selected := func(id string) bool { return all || want[id] }

	out := os.Stdout
	start := time.Now()
	fmt.Fprintf(out, "query-based sampling experiment suite (scale=%.3f seed=%d)\n\n", *scale, *seed)

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	if selected("table1") {
		rows, err := suite.Table1()
		if err != nil {
			fail(err)
		}
		if err := experiments.WriteTable1(out, rows); err != nil {
			fail(err)
		}
		fmt.Fprintln(out)
	}

	needBaselines := selected("fig1") || selected("fig2") || selected("fig4")
	var baselines []*experiments.BaselineRun
	if needBaselines {
		runs, err := suite.Baselines()
		if err != nil {
			fail(err)
		}
		baselines = runs
	}
	if selected("fig1") {
		if err := experiments.WriteFigure1a(out, baselines); err != nil {
			fail(err)
		}
		fmt.Fprintln(out)
		if err := experiments.WriteFigure1b(out, baselines); err != nil {
			fail(err)
		}
		fmt.Fprintln(out)
	}
	if selected("fig2") {
		if err := experiments.WriteFigure2(out, baselines); err != nil {
			fail(err)
		}
		fmt.Fprintln(out)
	}

	if selected("table2") {
		var rows []experiments.Table2Row
		for _, name := range experiments.Corpora() {
			r, err := suite.Table2(name, []int{1, 2, 4, 6, 8, 10})
			if err != nil {
				fail(err)
			}
			rows = append(rows, r...)
		}
		if err := experiments.WriteTable2(out, rows); err != nil {
			fail(err)
		}
		fmt.Fprintln(out)
	}

	if selected("fig3") || selected("table3") {
		runs, err := suite.Strategies("WSJ88")
		if err != nil {
			fail(err)
		}
		if selected("fig3") {
			if err := experiments.WriteFigure3a(out, runs); err != nil {
				fail(err)
			}
			fmt.Fprintln(out)
			if err := experiments.WriteFigure3b(out, runs); err != nil {
				fail(err)
			}
			fmt.Fprintln(out)
		}
		if selected("table3") {
			if err := experiments.WriteTable3(out, runs); err != nil {
				fail(err)
			}
			fmt.Fprintln(out)
		}
	}

	if selected("fig4") {
		if err := experiments.WriteFigure4(out, baselines); err != nil {
			fail(err)
		}
		fmt.Fprintln(out)
	}

	if selected("table4") {
		res, err := suite.Table4(50)
		if err != nil {
			fail(err)
		}
		if err := experiments.WriteTable4(out, res); err != nil {
			fail(err)
		}
		fmt.Fprintln(out)
	}

	if selected("ext-agree") {
		numDBs, docsEach := 10, 1000
		sizes := []int{25, 50, 100, 200, 300}
		if *scale < 1 {
			docsEach = int(float64(docsEach) * *scale)
			if docsEach < 100 {
				docsEach = 100
			}
		}
		results, err := experiments.SelectionAgreement(numDBs, docsEach, sizes, 30, *seed, workers, withMetrics)
		if err != nil {
			fail(err)
		}
		if err := experiments.WriteAgreement(out, results); err != nil {
			fail(err)
		}
		fmt.Fprintln(out)
	}

	if selected("ext-adv") {
		res, err := experiments.Adversarial(8, 600, 150, *seed, workers, withMetrics)
		if err != nil {
			fail(err)
		}
		if err := experiments.WriteAdversarial(out, res); err != nil {
			fail(err)
		}
		fmt.Fprintln(out)
	}

	if selected("ext-size") {
		rows, err := suite.SizeEstimation(300)
		if err != nil {
			fail(err)
		}
		if err := experiments.WriteSizes(out, rows); err != nil {
			fail(err)
		}
		fmt.Fprintln(out)
	}

	if selected("ext-fed") {
		numDBs, docsEach := 8, 800
		if *scale < 1 {
			docsEach = int(float64(docsEach) * *scale)
			if docsEach < 100 {
				docsEach = 100
			}
		}
		res, err := experiments.FederatedRetrieval(numDBs, docsEach, 200, 24, 3, *seed, workers, withMetrics)
		if err != nil {
			fail(err)
		}
		if err := experiments.WriteFederated(out, res); err != nil {
			fail(err)
		}
		fmt.Fprintln(out)
	}

	if selected("ext-var") {
		var rows []experiments.VarianceRow
		for _, name := range experiments.Corpora() {
			row, err := suite.SeedVariance(name, 5)
			if err != nil {
				fail(err)
			}
			rows = append(rows, row)
		}
		if err := experiments.WriteVariance(out, rows); err != nil {
			fail(err)
		}
		fmt.Fprintln(out)
	}

	if selected("ext-stop") {
		rows, err := suite.StoppingRule(0.005)
		if err != nil {
			fail(err)
		}
		if err := experiments.WriteStopping(out, rows); err != nil {
			fail(err)
		}
		fmt.Fprintln(out)
	}

	if *timing {
		printTiming(out, reg)
	}
	fmt.Fprintf(out, "done in %v\n", time.Since(start).Round(time.Millisecond))
}

// printTiming renders the per-experiment wall-time histogram family as a
// table: one row per experiment id (and env build), runs, total and p95.
func printTiming(w io.Writer, reg *telemetry.Registry) {
	snap := reg.Snapshot()
	names := make([]string, 0, len(snap.Histograms))
	for name := range snap.Histograms {
		if strings.HasPrefix(name, "experiments_") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return
	}
	fmt.Fprintf(w, "%-44s %6s %10s %10s\n", "timer", "runs", "total", "p95")
	for _, name := range names {
		h := snap.Histograms[name]
		fmt.Fprintf(w, "%-44s %6d %10s %10s\n", name, h.Count,
			time.Duration(h.Sum*float64(time.Second)).Round(time.Millisecond),
			time.Duration(h.P95*float64(time.Second)).Round(time.Millisecond))
	}
}
