package bench

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke builds the host and runs every workload both ways with a
// one-second window: every declared metric must come out, finite, with
// no failed request and correct answers. It is what keeps the benchmark
// from rotting when the layers it calls into change.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the host and runs every workload; skipped with -short")
	}
	s, err := NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Error(err)
		}
		if left, _ := filepath.Glob(filepath.Join(s.Dir, ".build", "run-*")); len(left) > 0 {
			t.Errorf("scratch left behind: %v", left)
		}
	}()
	for _, w := range Workloads {
		t.Run(w.Name, func(t *testing.T) {
			e2e, err := RunEndToEnd(s, w, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, e2e, EndToEnd)
			agree := e2e.Metrics["topk_agree"].Value
			if w.Shards == 0 && agree != 1 {
				t.Errorf("topk_agree = %v on a single-process host, want 1", agree)
			}
			if w.Shards > 0 && (agree <= 0 || agree >= 1) {
				t.Errorf("topk_agree = %v on a sharded host; CORI is partition-relative, so it should lie strictly between 0 and 1", agree)
			}

			traced, err := RunTraced(s, w, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, traced, PerLayer)
			hit := traced.Metrics["service.cache_hit_ratio"].Value
			coalesced := traced.Metrics["service.coalesced_ratio"].Value
			if w.HotPool == 0 && (hit != 0 || coalesced != 0) {
				t.Errorf("a workload without repeats hit the cache (%v) or coalesced (%v)", hit, coalesced)
			}
			// RankBatch bypasses the result cache by design, so a batch
			// workload's repeats are saved by within-batch dedup only.
			if w.HotPool > 0 && coalesced < 0.25 {
				t.Errorf("coalesced_ratio = %v with a hot pool, want at least 0.25", coalesced)
			}
			if inc := traced.Metrics["service.compiles_incremental"].Value; w.Refresh && inc == 0 {
				t.Error("no incremental compile during a refresh window")
			}
			if _, err := os.Stat(filepath.Join(s.OutDir, "trace-"+w.Name+".json")); err != nil {
				t.Errorf("no trace file: %v", err)
			}
		})
	}
}

func checkRun(t *testing.T, res *Result, defs []MetricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d: %s", res.Correct, res.Attempted, res.Failed, res.FirstErr)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s is missing", d.Name)
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 || m.Unit != d.Unit {
			t.Errorf("metric %s = %v %s", d.Name, m.Value, m.Unit)
		}
	}
}
