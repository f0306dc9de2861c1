// Command qbbench is the benchmark's harness: it builds and starts the
// host (cmd/benchhost) as a second process, drives a workload against it
// in closed loops, checks the answers, and prints every metric by name
// with its unit. See ../../README.md for what the workloads and metrics
// mean.
//
// Usage, from the repository root:
//
//	go run ./benchmark/cmd/qbbench                       # every workload, untraced then traced
//	go run ./benchmark/cmd/qbbench -workload rank_uniq   # one workload, one untraced run
//	go run ./benchmark/cmd/qbbench -workload refresh -trace 1 -seed 7 -seconds 20
//	go run ./benchmark/cmd/qbbench -aa 10                # A/A: two sets of 10 runs per workload
//
// With -workload the last line of standard output is the run's result as
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with -trace 0, the per-layer metrics with -trace 1.
// Without it every workload runs both ways and the collected results are
// also written to out/result.json. The exit status is 0 only if every
// run's outputs were correct and no request failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"repro/internal/parallel"

	"repro/benchmark/bench"
)

func main() {
	workload := flag.String("workload", "", "run only this workload (default: all of them)")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed replays the same queries")
	seconds := flag.Int("seconds", bench.DefaultSeconds, "length of the timed window, in seconds")
	trace := flag.Int("trace", 0, "with -workload: 0 = untraced end-to-end run, 1 = traced per-layer run")
	aa := flag.Int("aa", 0, "A/A mode: run two alternating sets of this many runs per workload and compare them")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *trace < 0 || *trace > 1 || *aa < 0 {
		flag.Usage()
		os.Exit(2)
	}
	workloads := bench.Workloads
	if *workload != "" {
		w, ok := bench.WorkloadByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "qbbench: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		workloads = []bench.Workload{w}
	}

	sess, err := bench.NewSession()
	if err != nil {
		fmt.Fprintln(os.Stderr, "qbbench:", err)
		os.Exit(1)
	}
	// A signal must not leave hosts running or scratch files behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	watch := parallel.NewGroup(1)
	watch.Go(func() error {
		<-sig
		if err := sess.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "qbbench:", err)
		}
		os.Exit(130)
		return nil
	})

	ok, err := run(sess, workloads, *workload != "", *seed, *seconds, *trace == 1, *aa)
	if cerr := sess.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "qbbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// run executes the selected mode and reports whether every run passed.
func run(sess *bench.Session, workloads []bench.Workload, single bool, seed uint64, seconds int, traced bool, aa int) (bool, error) {
	if aa > 0 {
		return bench.RunAA(sess, workloads, aa, seconds, os.Stdout)
	}
	if single {
		res, err := runOne(sess, workloads[0], seed, seconds, traced)
		if err != nil {
			return false, err
		}
		// The driver's contract: exactly these keys, as the last line.
		line, err := json.Marshal(map[string]any{
			"correct": res.Correct, "attempted": res.Attempted,
			"failed": res.Failed, "metrics": res.Metrics,
		})
		if err != nil {
			return false, err
		}
		fmt.Println(string(line))
		return res.Correct, nil
	}

	summary := bench.Summary{Seed: seed, Seconds: seconds}
	allOK := true
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runOne(sess, w, seed, seconds, traced)
			if err != nil {
				return false, err
			}
			allOK = allOK && res.Correct
			summary.Runs = append(summary.Runs, res)
		}
	}
	raw, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return false, err
	}
	path := filepath.Join(sess.OutDir, "result.json")
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Println("wrote", path)
	return allOK, nil
}

// runOne makes one run and prints its metrics, one per line.
func runOne(sess *bench.Session, w bench.Workload, seed uint64, seconds int, traced bool) (*bench.Result, error) {
	var res *bench.Result
	var err error
	defs := bench.EndToEnd
	if traced {
		defs = bench.PerLayer
		res, err = bench.RunTraced(sess, w, seed, seconds)
	} else {
		res, err = bench.RunEndToEnd(sess, w, seed, seconds)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	fmt.Printf("%s seed=%d seconds=%d traced=%v attempted=%d succeeded=%d failed=%d shed=%d correct=%v\n",
		w.Name, seed, seconds, traced, res.Attempted, res.Succeeded, res.Failed, res.Shed, res.Correct)
	if res.FirstErr != "" {
		fmt.Printf("  first error: %s\n", res.FirstErr)
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", w.Name, d.Name)
		}
		fmt.Printf("  %-36s %14.4f %s\n", d.Name, m.Value, m.Unit)
	}
	return res, nil
}
