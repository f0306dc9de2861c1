package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// specFile writes a BENCHMARK.json-shaped file with one workload and the
// given end-to-end metrics and reads it back the way cmdPairs does, so
// every direction and bound the tests use has come through the file.
func specFile(t *testing.T, defs ...metricDef) *benchSpec {
	t.Helper()
	raw, err := json.Marshal(map[string]any{
		"command":     []string{"qbbench"},
		"run_seconds": 20,
		"workloads":   []map[string]string{{"name": "w", "why": "test"}},
		"end_to_end":  defs,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := readSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// resultOutput is what one qbbench -workload run prints: the readable
// lines, then the result object as the last line.
func resultOutput(correct bool, failed int, vals map[string]float64) []byte {
	metrics := map[string]any{}
	for name, v := range vals {
		metrics[name] = map[string]any{"value": v, "unit": "x"}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": correct, "attempted": 1000, "failed": failed, "metrics": metrics,
	})
	return []byte("w seed=1 seconds=20 traced=false attempted=1000\n  m  1.0000 x\n" + string(line) + "\n")
}

// fakeRuns answers run calls from two columns of values for metric "m"
// (seed i reads row i-1) and records the order the sides were run in.
func fakeRuns(parent, change []float64, order *[]string) runFunc {
	return func(dir, workload string, seed, seconds int) ([]byte, error) {
		*order = append(*order, fmt.Sprintf("%s:%d", dir, seed))
		col := parent
		if dir == "change" {
			col = change
		}
		return resultOutput(true, 0, map[string]float64{"m": col[seed-1]}), nil
	}
}

// verdictOf finds metric m's row in runPairs' table and returns its last word.
func verdictOf(t *testing.T, table string) string {
	t.Helper()
	for _, line := range strings.Split(table, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == "m" && strings.HasPrefix(line, "  ") {
			return f[len(f)-1]
		}
	}
	t.Fatalf("no row for metric m in:\n%s", table)
	return ""
}

func TestPairsVerdicts(t *testing.T) {
	tight := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100} // quartiles 99..101
	wide := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}   // quartiles 77.5..122.5
	shift := func(v []float64, by float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] + by
		}
		return out
	}
	mirror := func(v []float64) []float64 { // the same shape read in the other direction
		out := make([]float64, len(v))
		for i := range v {
			out[i] = 200 - v[i]
		}
		return out
	}
	cases := []struct {
		name           string
		bound          float64
		parent, change []float64 // for better=lower; mirrored for better=higher
		want           string
	}{
		{"median worse by more than the bound", 0.25, tight, shift(tight, 30), regressed},
		{"worse, but inside the bound", 0.25, tight, shift(tight, 10), unchanged},
		{"the same gap against a tighter bound", 0.05, tight, shift(tight, 10), regressed},
		{"parent spread wider than the bound", 0.25, wide, shift(wide, -5), unresolved},
		{"wide spread, worse by more than the bound", 0.25, wide, shift(wide, 40), regressed},
		{"wide spread, every change run beats every parent run", 0.25, wide, shift(tight, -50), improved},
		{"ten wins, medians apart by more than the quartiles", 0.25, tight, shift(tight, -10), improved},
		{"ten wins, medians inside the parent's quartiles", 0.25, tight, shift(tight, -1), unchanged},
		{"eight wins of ten", 0.25, tight, []float64{90, 91, 89, 90, 92, 88, 90, 91, 100, 101}, unchanged},
		{"nine wins and a tie", 0.25, tight, []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 100}, improved},
		{"no difference", 0.25, tight, tight, unchanged},
		{"nine wins of nine: too few pairs to read a gain from", 0.25, tight[:9], shift(tight[:9], -10), unchanged},
		{"three pairs still show a regression", 0.25, tight[:3], shift(tight[:3], 30), regressed},
	}
	for _, c := range cases {
		for _, better := range []string{"lower", "higher"} {
			parent, change := c.parent, c.change
			if better == "higher" {
				parent, change = mirror(parent), mirror(change)
			}
			spec := specFile(t, metricDef{Name: "m", Better: better, Bound: c.bound})
			var order []string
			var out strings.Builder
			regressions, err := runPairs(spec, "parent", "change", len(parent), 20, fakeRuns(parent, change, &order), &out)
			if err != nil {
				t.Fatalf("%s (%s): %v", c.name, better, err)
			}
			if got := verdictOf(t, out.String()); got != c.want {
				t.Errorf("%s (%s is better): verdict %s, want %s\n%s", c.name, better, got, c.want, out.String())
			}
			if (regressions == 1) != (c.want == regressed) {
				t.Errorf("%s (%s): %d regressions reported for verdict %s", c.name, better, regressions, c.want)
			}
			// Pair i uses seed i on both sides; odd pairs run the parent first.
			if got := strings.Join(order[:4], " "); got != "parent:1 change:1 change:2 parent:2" {
				t.Errorf("%s (%s): runs began %q", c.name, better, got)
			}
		}
	}
}

// TestPairsDirectionComesFromSpec: the same twenty runs are a regression
// when the spec file says lower is better and a gain when it says higher.
func TestPairsDirectionComesFromSpec(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	change := make([]float64, len(parent))
	for i := range parent {
		change[i] = parent[i] + 30
	}
	for better, want := range map[string]string{"lower": regressed, "higher": improved} {
		var order []string
		var out strings.Builder
		spec := specFile(t, metricDef{Name: "m", Better: better, Bound: 0.25})
		if _, err := runPairs(spec, "parent", "change", 10, 20, fakeRuns(parent, change, &order), &out); err != nil {
			t.Fatal(err)
		}
		if got := verdictOf(t, out.String()); got != want {
			t.Errorf("better=%s: verdict %s, want %s", better, got, want)
		}
	}
}

func TestPairsRefusesBadRuns(t *testing.T) {
	spec := specFile(t,
		metricDef{Name: "m", Better: "lower", Bound: 0.25},
		metricDef{Name: "other", Better: "higher", Bound: 0.1})
	good := resultOutput(true, 0, map[string]float64{"m": 1, "other": 1})
	cases := []struct {
		name    string
		badSide string
		bad     []byte
		runErr  error
		wantErr string
	}{
		{"incorrect answers, parent", "parent", resultOutput(false, 0, map[string]float64{"m": 1, "other": 1}), nil, "correct=false"},
		{"incorrect answers, change", "change", resultOutput(false, 0, map[string]float64{"m": 1, "other": 1}), nil, "correct=false"},
		{"failed requests, parent", "parent", resultOutput(true, 3, map[string]float64{"m": 1, "other": 1}), nil, "3 of 1000 requests failed"},
		{"failed requests, change", "change", resultOutput(true, 3, map[string]float64{"m": 1, "other": 1}), nil, "3 of 1000 requests failed"},
		{"a metric is missing", "change", resultOutput(true, 0, map[string]float64{"m": 1}), nil, "metric other was not reported"},
		{"no result line", "parent", []byte("panic: boom\n"), nil, "not a result object"},
		{"no output at all", "parent", nil, fmt.Errorf("exit status 1"), "exit status 1"},
		{"the command failed after a good result", "change", good, fmt.Errorf("exit status 1"), "exit status 1"},
	}
	for _, c := range cases {
		run := func(dir, workload string, seed, seconds int) ([]byte, error) {
			if dir == c.badSide {
				return c.bad, c.runErr
			}
			return good, nil
		}
		var out strings.Builder
		_, err := runPairs(spec, "parent", "change", 2, 20, run, &out)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) || !strings.Contains(err.Error(), c.badSide) {
			t.Errorf("%s: error %v, want one naming %q and the %s side", c.name, err, c.wantErr, c.badSide)
		}
	}
}

func TestReadSpecRejectsUnusableSpecs(t *testing.T) {
	for name, body := range map[string]string{
		"no workloads":      `{"command":["x"],"run_seconds":20,"end_to_end":[{"name":"m","better":"lower","bound":0.1}]}`,
		"unknown direction": `{"command":["x"],"run_seconds":20,"workloads":[{"name":"w"}],"end_to_end":[{"name":"m","better":"up","bound":0.1}]}`,
		"no bound":          `{"command":["x"],"run_seconds":20,"workloads":[{"name":"w"}],"end_to_end":[{"name":"m","better":"lower"}]}`,
	} {
		path := filepath.Join(t.TempDir(), "BENCHMARK.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readSpec(path); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The repository's own file is the one that has to load.
	if _, err := readSpec("../../BENCHMARK.json"); err != nil {
		t.Error(err)
	}
}
