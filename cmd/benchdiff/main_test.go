package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSamplerThroughput/snapshots=off-8   91   13000000 ns/op   15060 docs/s   6635212 B/op   68381 allocs/op
BenchmarkSamplerThroughput/snapshots=off-8   90   15000000 ns/op   14900 docs/s   6635300 B/op   68382 allocs/op
BenchmarkSamplerThroughput/snapshots=off-8   92   11000000 ns/op   15200 docs/s   6635100 B/op   68380 allocs/op
BenchmarkSuiteBaselines/parallel=1-8          1  1066174286 ns/op 291357008 B/op  569657 allocs/op
PASS
ok   repro 5.976s
`

func TestParseBenchMedians(t *testing.T) {
	sum, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := sum.Benchmarks["SamplerThroughput/snapshots=off"]
	if !ok {
		t.Fatalf("missing benchmark; have %v", sum.Benchmarks)
	}
	if got.NsPerOp != 13000000 {
		t.Errorf("median ns/op = %v, want 13000000", got.NsPerOp)
	}
	if got.Runs != 3 {
		t.Errorf("runs = %d, want 3", got.Runs)
	}
	if got.BytesPerOp != 6635212 {
		t.Errorf("median B/op = %v, want 6635212", got.BytesPerOp)
	}
	if one := sum.Benchmarks["SuiteBaselines/parallel=1"]; one.NsPerOp != 1066174286 {
		t.Errorf("single-run ns/op = %v", one.NsPerOp)
	}
}

func TestBenchKey(t *testing.T) {
	cases := map[string]string{
		"BenchmarkFoo-8":             "Foo",
		"BenchmarkFoo/sub=case-16":   "Foo/sub=case",
		"BenchmarkFoo":               "Foo",
		"BenchmarkFoo/n=-1-8":        "Foo/n=-1", // only the procs suffix is stripped
		"BenchmarkSamplerThroughput": "SamplerThroughput",
	}
	for in, want := range cases {
		if got := benchKey(in); got != want {
			t.Errorf("benchKey(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	base := &Summary{Benchmarks: map[string]Result{
		"Fast":    {NsPerOp: 100, Runs: 5},
		"Slowed":  {NsPerOp: 100, Runs: 5},
		"Removed": {NsPerOp: 100, Runs: 5},
	}}
	cur := &Summary{Benchmarks: map[string]Result{
		"Fast":   {NsPerOp: 110, Runs: 5}, // +10%: within threshold
		"Slowed": {NsPerOp: 140, Runs: 5}, // +40%: regression
		"AddedC": {NsPerOp: 50, Runs: 5},
		"AddedB": {NsPerOp: 50, Runs: 5},
		"AddedA": {NsPerOp: 50, Runs: 5},
	}}
	report, regressions := compare(base, cur, 0.25)
	if regressions != 1 {
		t.Fatalf("regressions = %d, want 1\n%s", regressions, report)
	}
	for _, want := range []string{"REGRESSION", "missing", "new"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	if strings.Index(report, "Fast") > strings.Index(report, "Removed") {
		t.Errorf("report rows not sorted:\n%s", report)
	}
	a, b, c := strings.Index(report, "AddedA"), strings.Index(report, "AddedB"), strings.Index(report, "AddedC")
	if a < 0 || a > b || b > c {
		t.Errorf("new rows not sorted:\n%s", report)
	}
}

func TestMissingRequired(t *testing.T) {
	sum := &Summary{Benchmarks: map[string]Result{
		"Rank100DBs/alg=cori/path=compiled": {NsPerOp: 1},
		"SamplerThroughput/snapshots=off":   {NsPerOp: 1},
	}}
	cases := []struct {
		spec string
		want []string
	}{
		{"", nil},
		{"Rank100DBs", nil},                             // substring covers sub-benchmarks
		{"Rank100DBs,SamplerThroughput", nil},           // all present
		{"TokenizeASCII", []string{"TokenizeASCII"}},    // absent
		{" Rank100DBs , Ghost ,", []string{"Ghost"}},    // spaces and empty tokens ignored
		{"Ghost,Phantom", []string{"Ghost", "Phantom"}}, // order preserved
	}
	for _, c := range cases {
		got := missingRequired(sum, c.spec)
		if len(got) != len(c.want) {
			t.Errorf("missingRequired(%q) = %v, want %v", c.spec, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("missingRequired(%q) = %v, want %v", c.spec, got, c.want)
				break
			}
		}
	}
}

func TestCompareExactThresholdPasses(t *testing.T) {
	base := &Summary{Benchmarks: map[string]Result{"B": {NsPerOp: 100}}}
	cur := &Summary{Benchmarks: map[string]Result{"B": {NsPerOp: 125}}}
	if _, n := compare(base, cur, 0.25); n != 0 {
		t.Fatalf("exactly +25%% should pass, got %d regressions", n)
	}
}
