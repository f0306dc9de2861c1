package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/langmodel"
)

func TestFederationBuilds(t *testing.T) {
	dbs, err := Federation(4, 120, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(dbs) != 4 {
		t.Fatalf("got %d dbs", len(dbs))
	}
	names := map[string]bool{}
	for _, db := range dbs {
		if db.Index.NumDocs() != 120 {
			t.Errorf("%s has %d docs", db.Name, db.Index.NumDocs())
		}
		if names[db.Name] {
			t.Errorf("duplicate db name %s", db.Name)
		}
		names[db.Name] = true
	}
}

func TestSelectionAgreementImprovesWithBudget(t *testing.T) {
	results, err := SelectionAgreement(5, 200, []int{25, 100}, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d algorithms", len(results))
	}
	for _, r := range results {
		if len(r.Points) != 2 {
			t.Fatalf("%s: %d points", r.Algorithm, len(r.Points))
		}
		small, large := r.Points[0], r.Points[1]
		if small.SampleDocs >= large.SampleDocs {
			t.Errorf("%s: budgets not ordered", r.Algorithm)
		}
		for _, p := range r.Points {
			if p.Spearman < -1 || p.Spearman > 1 {
				t.Errorf("%s: agreement %f out of range", r.Algorithm, p.Spearman)
			}
			if p.Top3Overlap < 0 || p.Top3Overlap > 1 {
				t.Errorf("%s: overlap %f out of range", r.Algorithm, p.Top3Overlap)
			}
		}
		// With a topically separable federation, selection built on real
		// samples must do clearly better than chance at the larger budget.
		if large.Top3Overlap < 0.5 {
			t.Errorf("%s: top-3 overlap at 100 docs = %f, want >= 0.5",
				r.Algorithm, large.Top3Overlap)
		}
	}
}

func TestAdversarialLiarWinsOnlyCooperatively(t *testing.T) {
	res, err := Adversarial(5, 200, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.LiarRankCooperative == 0 || res.LiarRankSampled == 0 {
		t.Fatalf("liar missing from a ranking: %+v", res)
	}
	// The lie works on the cooperative path (liar at/near the top)...
	if res.LiarRankCooperative > 2 {
		t.Errorf("cooperative liar rank = %d, expected top-2", res.LiarRankCooperative)
	}
	// ...and is strictly less effective under sampling.
	if res.LiarRankSampled <= res.LiarRankCooperative {
		t.Errorf("sampling did not demote the liar: coop %d vs sampled %d",
			res.LiarRankCooperative, res.LiarRankSampled)
	}
	// The refuser is invisible to the cooperative service.
	if res.CoverageFailures != 1 {
		t.Errorf("coverage failures = %d, want 1", res.CoverageFailures)
	}
}

func TestAdversarialValidation(t *testing.T) {
	if _, err := Adversarial(3, 50, 20, 1); err == nil {
		t.Error("accepted too-small federation")
	}
}

func TestStoppingRuleStopsEarlierThanCorpus(t *testing.T) {
	s := smallSuite()
	rows, err := s.StoppingRule(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Docs == 0 {
			t.Errorf("%s: stopping rule sampled nothing", r.Corpus)
		}
		if r.CtfRatio <= 0 || r.CtfRatio > 1 {
			t.Errorf("%s: ctf ratio %f", r.Corpus, r.CtfRatio)
		}
		if r.FixedDocs == 0 {
			t.Errorf("%s: baseline missing", r.Corpus)
		}
	}
}

func TestSizeEstimation(t *testing.T) {
	s := smallSuite()
	rows, err := s.SizeEstimation(150)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Actual == 0 || r.CaptureRecapture <= 0 || r.SampleResample <= 0 {
			t.Errorf("%s: degenerate estimates %+v", r.Corpus, r)
		}
		// Capture-recapture should be within a small factor of truth at
		// these sample fractions.
		if r.CaptureRecaptureErr > 1.0 {
			t.Errorf("%s: capture-recapture rel err %.2f too large", r.Corpus, r.CaptureRecaptureErr)
		}
	}
}

func TestGcdAll(t *testing.T) {
	cases := []struct {
		in   []int
		want int
	}{
		{[]int{50, 100, 200}, 50},
		{[]int{25, 100}, 25},
		{[]int{30, 45}, 15},
		{[]int{7}, 7},
	}
	for _, c := range cases {
		if got := gcdAll(c.in); got != c.want {
			t.Errorf("gcdAll(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestModelAtBudget(t *testing.T) {
	m50 := langmodel.New()
	m50.AddDocument([]string{"fifty"})
	m100 := langmodel.New()
	m100.AddDocument([]string{"hundred"})
	final := langmodel.New()
	final.AddDocument([]string{"final"})
	res := &core.Result{
		Learned: final,
		Snapshots: []core.Snapshot{
			{Docs: 50, Model: m50},
			{Docs: 100, Model: m100},
		},
	}
	if got := modelAtBudget(res, 60); !got.Contains("fifty") {
		t.Error("budget 60 should use the 50-doc snapshot")
	}
	if got := modelAtBudget(res, 100); !got.Contains("hundred") {
		t.Error("budget 100 should use the 100-doc snapshot")
	}
	if got := modelAtBudget(res, 10); !got.Contains("final") {
		t.Error("budget below first snapshot should fall back to final model")
	}
}

func TestSeedVariance(t *testing.T) {
	s := smallSuite()
	row, err := s.SeedVariance("CACM", 3)
	if err != nil {
		t.Fatal(err)
	}
	if row.Seeds != 3 {
		t.Errorf("seeds = %d", row.Seeds)
	}
	if row.CtfMean <= 0 || row.CtfMean > 1 {
		t.Errorf("ctf mean %f out of range", row.CtfMean)
	}
	if row.CtfStd < 0 || row.SpearmanStd < 0 || row.QueriesStd < 0 {
		t.Errorf("negative std: %+v", row)
	}
	if row.QueriesMean <= 0 {
		t.Errorf("queries mean %f", row.QueriesMean)
	}
	// Too few seeds get clamped.
	row2, err := s.SeedVariance("CACM", 1)
	if err != nil {
		t.Fatal(err)
	}
	if row2.Seeds != 2 {
		t.Errorf("clamped seeds = %d, want 2", row2.Seeds)
	}
}

func TestMeanStd(t *testing.T) {
	mean, std := meanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if mean != 5 {
		t.Errorf("mean = %f, want 5", mean)
	}
	if std != 2 {
		t.Errorf("std = %f, want 2", std)
	}
	if m, s := meanStd(nil); m != 0 || s != 0 {
		t.Errorf("empty meanStd = %f, %f", m, s)
	}
}

func TestFederatedRetrieval(t *testing.T) {
	res, err := FederatedRetrieval(5, 200, 80, 10, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries == 0 {
		t.Fatal("no queries evaluated")
	}
	for name, p := range map[string]float64{
		"central": res.PrecisionCentral,
		"actual":  res.PrecisionActual,
		"sampled": res.PrecisionSampled,
		"random":  res.PrecisionRandom,
	} {
		if p < 0 || p > 1 {
			t.Errorf("%s precision %f out of range", name, p)
		}
	}
	// The headline: selection with sampled models beats random selection
	// and lands near the actual-model pipeline.
	if res.PrecisionSampled <= res.PrecisionRandom {
		t.Errorf("sampled models (%f) no better than random selection (%f)",
			res.PrecisionSampled, res.PrecisionRandom)
	}
	if res.PrecisionSampled < res.PrecisionActual*0.7 {
		t.Errorf("sampled pipeline (%f) far below actual-model pipeline (%f)",
			res.PrecisionSampled, res.PrecisionActual)
	}
}
