package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/parallel"
)

// VarianceRow reports run-to-run variability of the baseline experiment on
// one corpus (ext-var). The paper reports single runs; this extension
// quantifies how much the headline numbers move with the sampling seed —
// the error bars the paper's figures do not have.
type VarianceRow struct {
	Corpus string
	Seeds  int
	// Final ctf ratio across seeds.
	CtfMean, CtfStd float64
	// Final Spearman (paper formula) across seeds.
	SpearmanMean, SpearmanStd float64
	// Queries needed across seeds.
	QueriesMean, QueriesStd float64
}

// SeedVariance reruns the baseline on one corpus with nSeeds different
// seeds and reports mean and standard deviation of the final metrics.
func (s *Suite) SeedVariance(name string, nSeeds int) (VarianceRow, error) {
	defer s.timeExp("ext-var", s.Metrics.Now())
	if nSeeds < 2 {
		nSeeds = 2
	}
	env, err := s.Env(name)
	if err != nil {
		return VarianceRow{}, err
	}
	initial, err := s.initialModel(env)
	if err != nil {
		return VarianceRow{}, err
	}
	budget := s.docBudget(name, env)

	// The seed replicas are the textbook embarrassingly parallel workload:
	// same configuration, different seeds, no shared state.
	type finals struct{ ctf, rho, queries float64 }
	runs, err := parallel.Map(s.workers(), make([]struct{}, nSeeds), func(i int, _ struct{}) (finals, error) {
		cfg := core.DefaultConfig(initial, budget, s.Seed+hashName(name)+uint64(5000+i*13))
		cfg.SnapshotEvery = 0
		res, err := core.Sample(env.Index, cfg)
		if err != nil {
			return finals{}, fmt.Errorf("experiments: variance %s seed %d: %w", name, i, err)
		}
		_, ctf, _, rhoSimple := measure(res.Learned, env)
		return finals{ctf: ctf, rho: rhoSimple, queries: float64(res.Queries)}, nil
	})
	if err != nil {
		return VarianceRow{}, err
	}
	ctfs := make([]float64, 0, nSeeds)
	rhos := make([]float64, 0, nSeeds)
	queries := make([]float64, 0, nSeeds)
	for _, r := range runs {
		ctfs = append(ctfs, r.ctf)
		rhos = append(rhos, r.rho)
		queries = append(queries, r.queries)
	}
	row := VarianceRow{Corpus: name, Seeds: nSeeds}
	row.CtfMean, row.CtfStd = meanStd(ctfs)
	row.SpearmanMean, row.SpearmanStd = meanStd(rhos)
	row.QueriesMean, row.QueriesStd = meanStd(queries)
	return row, nil
}

// meanStd returns the sample mean and (population) standard deviation.
func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}

// WriteVariance renders the ext-var experiment.
func WriteVariance(w io.Writer, rows []VarianceRow) error {
	fmt.Fprintln(w, "Extension: seed-to-seed variance of the baseline experiment")
	tw := newTW(w)
	fmt.Fprintln(tw, "Corpus\tSeeds\tctf ratio\t±\tSpearman\t±\tQueries\t±")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.4f\t%.4f\t%.4f\t%.4f\t%.1f\t%.1f\n",
			r.Corpus, r.Seeds, r.CtfMean, r.CtfStd, r.SpearmanMean, r.SpearmanStd,
			r.QueriesMean, r.QueriesStd)
	}
	return tw.Flush()
}
