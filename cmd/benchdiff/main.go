// Command benchdiff records `go test -bench` output as a JSON summary and
// compares two summaries, failing on performance regressions, and runs
// the repository's benchmark (BENCHMARK.json) as alternating parent/change
// pairs. It is the engine of the CI bench and serving jobs (see
// .github/workflows/ci.yml):
//
//	go test . -run xxx -bench '...' -benchmem -count=5 | benchdiff record -o BENCH_$(git rev-parse HEAD).json
//	benchdiff compare -threshold 0.25 BENCH_baseline.json BENCH_<sha>.json
//	benchdiff pairs ../parent-checkout
//
// record parses the standard benchmark output format and keeps, per
// benchmark name, the median over the repeated -count runs — the median is
// robust to a single noisy run, which matters on shared CI machines.
// compare prints a table of baseline vs current ns/op and exits nonzero if
// any benchmark slowed down by more than the threshold fraction.
//
// Benchmark names are recorded without the GOMAXPROCS "-8" suffix so a
// baseline recorded on one machine keys correctly against runs on hosts
// with different CPU counts.
//
// pairs (pairs.go) is the measuring stick for the serving system as a
// whole: record and compare gate single functions.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's summary: medians over the repeated runs.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	Runs        int     `json:"runs"`
}

// Summary is the on-disk JSON format (BENCH_*.json).
type Summary struct {
	Benchmarks map[string]Result `json:"benchmarks"`
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		cmdRecord(os.Args[2:])
	case "compare":
		cmdCompare(os.Args[2:])
	case "pairs":
		cmdPairs(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  benchdiff record [-o out.json] [-require name[,name...]] [bench-output.txt]
  benchdiff compare [-threshold 0.25] baseline.json current.json
  benchdiff pairs [-pairs 10] [-seconds N] parent-checkout`)
	os.Exit(2)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchdiff: "+format+"\n", args...)
	os.Exit(1)
}

func cmdRecord(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	out := fs.String("o", "", "output file (default stdout)")
	require := fs.String("require", "", "comma-separated benchmark name substrings that must appear in the recording")
	fs.Parse(args)

	in := io.Reader(os.Stdin)
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		in = f
	}
	sum, err := parseBench(in)
	if err != nil {
		fail("%v", err)
	}
	if len(sum.Benchmarks) == 0 {
		fail("no benchmark lines found in input")
	}
	if missing := missingRequired(sum, *require); len(missing) > 0 {
		// A required benchmark silently vanishing (renamed, filtered out
		// by a narrowed -bench pattern) would otherwise produce a baseline
		// that can never flag its regressions.
		fail("required benchmark(s) missing from recording: %s", strings.Join(missing, ", "))
	}
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		fail("%v", err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fail("%v", err)
	}
	fmt.Fprintf(os.Stderr, "recorded %d benchmarks to %s\n", len(sum.Benchmarks), *out)
}

// missingRequired returns, in input order, the -require tokens that match
// no recorded benchmark name (substring match, so "Rank100DBs" covers all
// its sub-benchmarks). An empty spec requires nothing.
func missingRequired(sum *Summary, spec string) []string {
	var missing []string
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		found := false
		for name := range sum.Benchmarks {
			if strings.Contains(name, tok) {
				found = true
				break
			}
		}
		if !found {
			missing = append(missing, tok)
		}
	}
	return missing
}

func cmdCompare(args []string) {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	threshold := fs.Float64("threshold", 0.25, "fail when ns/op grows by more than this fraction")
	fs.Parse(args)
	if fs.NArg() != 2 {
		usage()
	}
	base, err := readSummary(fs.Arg(0))
	if err != nil {
		fail("%v", err)
	}
	cur, err := readSummary(fs.Arg(1))
	if err != nil {
		fail("%v", err)
	}
	report, regressions := compare(base, cur, *threshold)
	fmt.Print(report)
	if regressions > 0 {
		fail("%d benchmark(s) regressed more than %.0f%%", regressions, *threshold*100)
	}
}

func readSummary(path string) (*Summary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Summary
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// parseBench reads `go test -bench` output and returns per-benchmark
// medians. Lines look like
//
//	BenchmarkName/sub=case-8   91   13352078 ns/op   15060 docs/s   6635212 B/op   68381 allocs/op
//
// i.e. a name, an iteration count, then (value, unit) pairs; units other
// than ns/op, B/op and allocs/op (custom b.ReportMetric units) are skipped.
func parseBench(r io.Reader) (*Summary, error) {
	type samples struct{ ns, bytes, allocs []float64 }
	acc := map[string]*samples{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := benchKey(fields[0])
		s := acc[name]
		if s == nil {
			s = &samples{}
			acc[name] = s
		}
		// fields[1] is the iteration count; value/unit pairs follow.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				s.ns = append(s.ns, v)
			case "B/op":
				s.bytes = append(s.bytes, v)
			case "allocs/op":
				s.allocs = append(s.allocs, v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sum := &Summary{Benchmarks: map[string]Result{}}
	for name, s := range acc {
		if len(s.ns) == 0 {
			continue
		}
		sum.Benchmarks[name] = Result{
			NsPerOp:     median(s.ns),
			BytesPerOp:  median(s.bytes),
			AllocsPerOp: median(s.allocs),
			Runs:        len(s.ns),
		}
	}
	return sum, nil
}

// benchKey strips the "Benchmark" prefix and the trailing GOMAXPROCS
// suffix ("-8") so keys are stable across machines.
func benchKey(name string) string {
	name = strings.TrimPrefix(name, "Benchmark")
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	return name
}

// median returns the middle value (average of the two middles for even
// counts); 0 for an empty slice.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 0 {
		return (sorted[mid-1] + sorted[mid]) / 2
	}
	return sorted[mid]
}

// compare renders a baseline-vs-current table and counts regressions: a
// benchmark regresses when its ns/op grew by more than threshold. Missing
// and new benchmarks are reported but never fail the comparison (a renamed
// benchmark should not break CI; the baseline refresh catches it).
func compare(base, cur *Summary, threshold float64) (string, int) {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	var b strings.Builder
	regressions := 0
	fmt.Fprintf(&b, "%-52s %14s %14s %8s\n", "benchmark", "base ns/op", "cur ns/op", "delta")
	for _, name := range names {
		bb := base.Benchmarks[name]
		cc, ok := cur.Benchmarks[name]
		if !ok {
			fmt.Fprintf(&b, "%-52s %14.0f %14s %8s\n", name, bb.NsPerOp, "-", "missing")
			continue
		}
		delta := 0.0
		if bb.NsPerOp > 0 {
			delta = (cc.NsPerOp - bb.NsPerOp) / bb.NsPerOp
		}
		mark := ""
		if delta > threshold {
			regressions++
			mark = "  << REGRESSION"
		}
		fmt.Fprintf(&b, "%-52s %14.0f %14.0f %+7.1f%%%s\n", name, bb.NsPerOp, cc.NsPerOp, delta*100, mark)
	}
	extra := make([]string, 0, len(cur.Benchmarks))
	for name := range cur.Benchmarks {
		if _, ok := base.Benchmarks[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(&b, "%-52s %14s %14.0f %8s\n", name, "-", cur.Benchmarks[name].NsPerOp, "new")
	}
	return b.String(), regressions
}
