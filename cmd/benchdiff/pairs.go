package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchSpec is what pairs reads of BENCHMARK.json: the command that makes
// one run, the workloads, and each end-to-end metric's direction and
// bound. Nothing of it is restated here or in the Makefile.
type benchSpec struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // share of the parent's median it may worsen by
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(spec.Command) == 0 || len(spec.Workloads) == 0 || len(spec.EndToEnd) == 0 || spec.RunSeconds < 1 {
		return nil, fmt.Errorf("%s: needs command, run_seconds, workloads and end_to_end", path)
	}
	for _, d := range spec.EndToEnd {
		if (d.Better != "lower" && d.Better != "higher") || d.Bound <= 0 {
			return nil, fmt.Errorf("%s: metric %s needs better lower|higher and a bound above 0", path, d.Name)
		}
	}
	return &spec, nil
}

// runFunc makes one run of a workload in a checkout and returns what the
// benchmark's command wrote to standard output.
type runFunc func(dir, workload string, seed, seconds int) ([]byte, error)

// parseRun reads the last line of a run's output, the benchmark's
// {"correct","attempted","failed","metrics"} object, and returns the value
// of every metric in defs. A run that was not correct, failed a request,
// or lacks a metric is an error: a pair with a bad side decides nothing.
func parseRun(out []byte, defs []metricDef) (map[string]float64, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res struct {
		Correct   *bool `json:"correct"`
		Attempted int   `json:"attempted"`
		Failed    int   `json:"failed"`
		Values    map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil || res.Correct == nil {
		return nil, fmt.Errorf("last output line is not a result object: %q", lines[len(lines)-1])
	}
	if !*res.Correct || res.Failed > 0 {
		return nil, fmt.Errorf("correct=%v, %d of %d requests failed", *res.Correct, res.Failed, res.Attempted)
	}
	vals := make(map[string]float64, len(defs))
	for _, d := range defs {
		m, ok := res.Values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not reported", d.Name)
		}
		vals[d.Name] = m.Value
	}
	return vals, nil
}

// minPairs is the fewest pairs a gain can be read from; a shorter series
// (CI's) can still show a regression.
const minPairs = 10

const (
	regressed  = "regressed"
	unresolved = "unresolved"
	improved   = "improved"
	unchanged  = "unchanged"
)

// pairing is what the paired-run rule makes of one metric of one workload.
type pairing struct {
	parent, change float64 // medians
	q1, q3         float64 // the parent's quartiles
	wins           int     // pairs in which the change read better
	verdict        string
}

// judge applies the paired-run rule; parent[i] and change[i] are the two
// sides of pair i. The verdicts, in this order: regressed, the change's
// median is worse than the parent's by more than the bound; unresolved,
// the parent's own runs spread (quartile distance) by more than the bound,
// unless every run of the change beats every run of the parent; improved,
// of at least minPairs pairs the change wins nine in ten (ties count for
// neither) and the medians are further apart than the parent's quartiles;
// unchanged otherwise.
func judge(d metricDef, parent, change []float64) pairing {
	sign := 1.0 // after scaling by sign, larger is worse
	if d.Better == "higher" {
		sign = -1
	}
	p := pairing{parent: median(parent), change: median(change), verdict: unchanged}
	p.q1, p.q3 = quartiles(parent)
	worse := sign * (p.change - p.parent)
	bound := d.Bound * math.Abs(p.parent)

	bestParent, worstChange := math.Inf(1), math.Inf(-1)
	for i := range parent {
		if sign*change[i] < sign*parent[i] {
			p.wins++
		}
		bestParent = math.Min(bestParent, sign*parent[i])
		worstChange = math.Max(worstChange, sign*change[i])
	}
	switch {
	case worse > bound:
		p.verdict = regressed
	case p.q3-p.q1 > bound && worstChange >= bestParent:
		p.verdict = unresolved
	case len(parent) >= minPairs && p.wins*10 >= 9*len(parent) && -worse > p.q3-p.q1:
		p.verdict = improved
	}
	return p
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(vals, n=4) gives them, the convention the
// benchmark's own A/A spread uses (benchmark/bench.Spread).
func quartiles(vals []float64) (q1, q3 float64) {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	m := len(sorted)
	if m < 2 {
		return sorted[0], sorted[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// runPairs makes n alternating parent/change pairs of every workload (pair
// i uses seed i on both sides; odd pairs run the parent first, so drift in
// the machine falls on both), lists every run, and prints one verdict per
// workload and metric. It returns how many read regressed; a bad run ends
// it with an error.
func runPairs(spec *benchSpec, parentDir, changeDir string, n, seconds int, run runFunc, out io.Writer) (int, error) {
	sides := [2]struct{ name, dir string }{{"parent", parentDir}, {"change", changeDir}}
	regressions := 0
	for _, w := range spec.Workloads {
		var vals [2]map[string][]float64
		vals[0], vals[1] = map[string][]float64{}, map[string][]float64{}
		for i := 1; i <= n; i++ {
			for turn := 0; turn < 2; turn++ {
				s := (turn + i + 1) % 2 // odd pairs: parent, change; even pairs: change, parent
				raw, runErr := run(sides[s].dir, w.Name, i, seconds)
				got, err := parseRun(raw, spec.EndToEnd)
				if err = errors.Join(runErr, err); err != nil {
					return regressions, fmt.Errorf("%s pair %d %s: %w", w.Name, i, sides[s].name, err)
				}
				fmt.Fprintf(out, "%s pair %d %s", w.Name, i, sides[s].name)
				for _, d := range spec.EndToEnd {
					vals[s][d.Name] = append(vals[s][d.Name], got[d.Name])
					fmt.Fprintf(out, " %s=%.6g", d.Name, got[d.Name])
				}
				fmt.Fprintln(out)
			}
		}
		fmt.Fprintf(out, "%s: %d pairs, %d s windows\n", w.Name, n, seconds)
		fmt.Fprintf(out, "  %-18s %12s %12s %8s  %-25s %5s %6s  %s\n",
			"metric", "parent", "change", "delta", "parent q1..q3", "wins", "bound", "verdict")
		for _, d := range spec.EndToEnd {
			p := judge(d, vals[0][d.Name], vals[1][d.Name])
			if p.verdict == regressed {
				regressions++
			}
			delta := 0.0
			if p.parent != 0 {
				delta = (p.change - p.parent) / math.Abs(p.parent)
			}
			fmt.Fprintf(out, "  %-18s %12.6g %12.6g %+7.2f%%  %-25s %2d/%-2d %5.1f%%  %s\n",
				d.Name, p.parent, p.change, delta*100, fmt.Sprintf("%.6g..%.6g", p.q1, p.q3), p.wins, n, d.Bound*100, p.verdict)
		}
	}
	return regressions, nil
}

func cmdPairs(args []string) {
	fs := flag.NewFlagSet("pairs", flag.ExitOnError)
	n := fs.Int("pairs", minPairs, "alternating parent/change pairs per workload; fewer can show a regression but no gain")
	seconds := fs.Int("seconds", 0, "timed window of each run (default: BENCHMARK.json's run_seconds)")
	fs.Parse(args)
	if fs.NArg() != 1 || *n < 1 || *seconds < 0 {
		usage()
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fail("%v", err)
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	// One run is the benchmark's own command with the workload, seed and
	// window appended, in the checkout it measures: each side builds what
	// it runs from its own source.
	run := func(dir, workload string, seed, seconds int) ([]byte, error) {
		argv := append(append([]string(nil), spec.Command[1:]...),
			"-workload", workload, "-seed", strconv.Itoa(seed), "-seconds", strconv.Itoa(seconds))
		cmd := exec.Command(spec.Command[0], argv...)
		cmd.Dir = dir
		cmd.Stderr = os.Stderr
		return cmd.Output()
	}
	regressions, err := runPairs(spec, fs.Arg(0), ".", *n, *seconds, run, os.Stdout)
	if err != nil {
		fail("%v", err)
	}
	if regressions > 0 {
		fail("%d (workload, metric) pairing(s) regressed", regressions)
	}
}
