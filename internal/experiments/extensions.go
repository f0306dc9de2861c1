package experiments

import (
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/langmodel"
	"repro/internal/parallel"
	"repro/internal/randx"
	"repro/internal/selection"
	"repro/internal/sizeest"
	"repro/internal/starts"
)

// This file implements the extension experiments of DESIGN.md §5 — the
// questions the paper raises but leaves open, answered with the same
// machinery.

// FederationDB is one database of a synthetic federation.
type FederationDB struct {
	// Name labels the database.
	Name string
	// Index is its search engine.
	Index *index.Index
	// Actual is its true language model.
	Actual *langmodel.Model
}

// Federation builds k topically distinct databases of docsEach documents,
// the multi-database universe the selection experiments run against. Each
// database's corpus generation and index build is independent (per-db
// seeds), so they fan out over a worker pool; the returned slice is in
// database order regardless of concurrency.
func Federation(k, docsEach int, seed uint64, opts ...Option) ([]*FederationDB, error) {
	o := applyOptions(opts)
	topics := []string{
		"finance", "law", "medicine", "sport", "energy",
		"travel", "science", "art", "farming", "military",
		"weather", "music", "film", "food", "space",
	}
	return parallel.Map(o.workers, make([]struct{}, k), func(i int, _ struct{}) (*FederationDB, error) {
		topic := topics[i%len(topics)]
		p := corpus.Profile{
			Name:            fmt.Sprintf("db%02d-%s", i, topic),
			Docs:            docsEach,
			SharedVocabSize: 2500,
			SharedProb:      0.5,
			Topics: []corpus.TopicSpec{
				{Name: topic, VocabSize: 8000, Weight: 1},
			},
			DocLenMu:    4.6,
			DocLenSigma: 0.5,
			MinDocLen:   15,
			ZipfS:       1.35,
			ZipfV:       2,
			MorphProb:   0.12,
			Seed:        seed + uint64(i)*7919,
		}
		docs, err := p.Generate()
		if err != nil {
			return nil, err
		}
		ix := index.Build(docs, analysis.Database(), index.InQuery)
		return &FederationDB{Name: p.Name, Index: ix, Actual: ix.LanguageModel()}, nil
	})
}

// AgreementPoint reports database-selection fidelity at one sample size.
type AgreementPoint struct {
	// SampleDocs is the documents sampled per database.
	SampleDocs int
	// Spearman is the mean ranking agreement (actual-model ranking vs
	// learned-model ranking) over the query set.
	Spearman float64
	// Top3Overlap is the mean share of the top-3 selected databases
	// preserved when learned models replace actual ones.
	Top3Overlap float64
}

// AgreementResult is the ext-agree experiment output for one algorithm.
type AgreementResult struct {
	Algorithm string
	Points    []AgreementPoint
}

// SelectionAgreement answers the paper's open question (§5): how accurate
// do learned models have to be before database *selection* stops caring?
// It builds a federation, samples every database at increasing budgets,
// and measures how closely CORI and GlOSS rankings computed from learned
// models track the rankings computed from actual models, averaged over
// nQueries 2-term topical queries.
func SelectionAgreement(numDBs, docsEach int, sampleSizes []int, nQueries int, seed uint64, opts ...Option) ([]AgreementResult, error) {
	o := applyOptions(opts)
	defer o.timeExp("ext-agree")()
	dbs, err := Federation(numDBs, docsEach, seed, opts...)
	if err != nil {
		return nil, err
	}
	actuals := make([]*langmodel.Model, len(dbs))
	for i, db := range dbs {
		actuals[i] = db.Actual
	}

	// Learned models at each budget: sample incrementally per database.
	// Every database's run is independent (own seed), so the federation
	// samples fan out; the per-budget lists are assembled in database
	// order afterwards.
	sorted := append([]int(nil), sampleSizes...)
	sort.Ints(sorted)
	maxBudget := sorted[len(sorted)-1]
	perDB, err := parallel.Map(o.workers, dbs, func(i int, db *FederationDB) ([]*langmodel.Model, error) {
		cfg := core.DefaultConfig(db.Actual, maxBudget, seed+uint64(i)+12345)
		cfg.SnapshotEvery = gcdAll(sorted)
		res, err := core.Sample(db.Index, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: agreement sampling db %d: %w", i, err)
		}
		models := make([]*langmodel.Model, 0, len(sorted))
		for _, budget := range sorted {
			models = append(models, modelAtBudget(res, budget).Normalize(db.Index.Analyzer()))
		}
		return models, nil
	})
	if err != nil {
		return nil, err
	}
	learnedAt := make(map[int][]*langmodel.Model, len(sorted))
	for _, models := range perDB {
		for bi, budget := range sorted {
			learnedAt[budget] = append(learnedAt[budget], models[bi])
		}
	}

	queries := federationQueries(dbs, nQueries, seed+999)
	algs := []selection.Algorithm{selection.CORI{}, selection.Gloss{Estimator: selection.GlossSum}}
	out := make([]AgreementResult, 0, len(algs))
	for _, alg := range algs {
		result := AgreementResult{Algorithm: alg.Name()}
		for _, budget := range sorted {
			var sumRho, sumOverlap float64
			for _, q := range queries {
				rankActual := selection.Rank(alg, q, actuals)
				rankLearned := selection.Rank(alg, q, learnedAt[budget])
				sumRho += selection.RankAgreement(rankActual, rankLearned)
				sumOverlap += selection.TopKOverlap(rankActual, rankLearned, 3)
			}
			result.Points = append(result.Points, AgreementPoint{
				SampleDocs:  budget,
				Spearman:    sumRho / float64(len(queries)),
				Top3Overlap: sumOverlap / float64(len(queries)),
			})
		}
		out = append(out, result)
	}
	return out, nil
}

// modelAtBudget returns the learned model closest to (and not after) the
// given document budget, falling back to the final model.
func modelAtBudget(res *core.Result, budget int) *langmodel.Model {
	best := res.Learned
	for _, s := range res.Snapshots {
		if s.Docs <= budget {
			best = s.Model
		}
	}
	return best
}

// TopicalTerms returns up to k frequent terms of db that appear in *no*
// other federation database — genuinely topical vocabulary. The shared
// head (function words and shared content words) is identical across the
// federation, so filtering on exclusivity is what makes a query have a
// clearly right answer.
func TopicalTerms(db *FederationDB, others []*FederationDB, k int) []string {
	out := make([]string, 0, k)
	for _, t := range db.Actual.TopTerms(langmodel.ByDF, db.Actual.VocabSize()) {
		unique := true
		for _, o := range others {
			if o != db && o.Actual.Contains(t) {
				unique = false
				break
			}
		}
		if unique {
			out = append(out, t)
			if len(out) == k {
				break
			}
		}
	}
	return out
}

// federationQueries builds two-term topical queries: each query takes two
// database-exclusive terms from one database's actual model, so every
// query has a clearly right answer. Terms come from the *mid-to-rare*
// band of the exclusive vocabulary: head terms are in every learned model
// after a handful of documents, which would make every selection
// experiment trivially perfect; rarer terms are where learned-model
// coverage actually varies with the sampling budget.
func federationQueries(dbs []*FederationDB, n int, seed uint64) [][]string {
	rng := randx.New(seed)
	queries := make([][]string, 0, n)
	for i := 0; i < n; i++ {
		db := dbs[i%len(dbs)]
		pool := TopicalTerms(db, dbs, 900)
		if len(pool) < 8 {
			continue
		}
		tail := pool[len(pool)/3:]
		queries = append(queries, []string{
			tail[rng.Intn(len(tail))],
			tail[rng.Intn(len(tail))],
		})
	}
	return queries
}

func gcdAll(xs []int) int {
	g := xs[0]
	for _, x := range xs[1:] {
		for x != 0 {
			g, x = x, g%x
		}
	}
	if g < 1 {
		g = 1
	}
	return g
}

// AdversarialResult is the ext-adv experiment output.
type AdversarialResult struct {
	// Query is the bait query used.
	Query []string
	// LiarRankCooperative is the lying database's position (1-based) in
	// the CORI ranking built from STARTS-exported models.
	LiarRankCooperative int
	// LiarRankSampled is its position when models are learned by sampling.
	LiarRankSampled int
	// HonestWinner is the database that actually contains the query topic.
	HonestWinner int
	// CoverageFailures is how many providers refused or could not export
	// under the cooperative protocol (sampling has no such gap).
	CoverageFailures int
}

// Adversarial demonstrates the §2.2 failure modes: a federation where one
// provider lies about containing the query terms (to attract traffic) and
// others refuse to cooperate. Cooperative acquisition ranks the liar
// first and loses refusing databases entirely; query-based sampling is
// immune — the liar's lie never shows up in documents it actually returns.
func Adversarial(numDBs, docsEach, sampleDocs int, seed uint64, opts ...Option) (*AdversarialResult, error) {
	o := applyOptions(opts)
	defer o.timeExp("ext-adv")()
	dbs, err := Federation(numDBs, docsEach, seed, opts...)
	if err != nil {
		return nil, err
	}
	if numDBs < 4 {
		return nil, fmt.Errorf("experiments: adversarial needs >= 4 databases")
	}
	honest := 0  // the database genuinely about the query topic
	liarDB := 1  // misrepresents its contents
	refuser := 2 // will not cooperate

	// Bait query: mid-frequency terms exclusive to the honest database, so
	// the topically right answer is unambiguous. Mid-frequency matters:
	// these are terms the liar genuinely lacks and can inflate without
	// also inflating its collection-size statistics out of range, i.e. the
	// kind of term real misrepresentation targets.
	pool := TopicalTerms(dbs[honest], dbs, 60)
	if len(pool) < 2 {
		return nil, fmt.Errorf("experiments: honest database has no exclusive vocabulary")
	}
	query := pool[len(pool)/2 : len(pool)/2+2]

	// Cooperative acquisition: liar inflates the bait, refuser refuses.
	providers := make([]starts.Provider, numDBs)
	for i, db := range dbs {
		switch i {
		case liarDB:
			providers[i] = starts.Liar{Model: db.Actual, Bait: query, Factor: 500}
		case refuser:
			providers[i] = starts.Noncooperative{}
		default:
			providers[i] = starts.Cooperative{Model: db.Actual}
		}
	}
	models, failures := starts.Acquire(providers)
	coopModels := make([]*langmodel.Model, 0, len(models))
	coopIDs := make([]int, 0, len(models))
	for i := 0; i < numDBs; i++ {
		if m, ok := models[i]; ok {
			coopModels = append(coopModels, m)
			coopIDs = append(coopIDs, i)
		}
	}
	coopRank := selection.Rank(selection.CORI{}, query, coopModels)

	// Sampled acquisition: every database reachable, lies ineffective.
	// Each database samples independently under the worker pool.
	sampled, err := parallel.Map(o.workers, dbs, func(i int, db *FederationDB) (*langmodel.Model, error) {
		cfg := core.DefaultConfig(db.Actual, sampleDocs, seed+uint64(i)+777)
		cfg.SnapshotEvery = 0
		res, err := core.Sample(db.Index, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: adversarial sampling db %d: %w", i, err)
		}
		return res.Learned.Normalize(db.Index.Analyzer()), nil
	})
	if err != nil {
		return nil, err
	}
	sampRank := selection.Rank(selection.CORI{}, query, sampled)

	out := &AdversarialResult{
		Query:            query,
		HonestWinner:     honest,
		CoverageFailures: len(failures),
	}
	for pos, r := range coopRank {
		if coopIDs[r.DB] == liarDB {
			out.LiarRankCooperative = pos + 1
		}
	}
	for pos, r := range sampRank {
		if r.DB == liarDB {
			out.LiarRankSampled = pos + 1
		}
	}
	return out, nil
}

// SizeRow is the ext-size experiment output for one corpus: how well the
// two sampling-based estimators recover the database's document count —
// the piece of information the paper says "appears difficult to acquire
// by sampling" (§3).
type SizeRow struct {
	Corpus string
	// Actual is the true document count.
	Actual int
	// CaptureRecapture is the Chapman-corrected two-sample estimate and
	// its relative error.
	CaptureRecapture    float64
	CaptureRecaptureErr float64
	// SampleResample is the hit-count-based estimate and its relative
	// error.
	SampleResample    float64
	SampleResampleErr float64
	// SampleDocs is the per-pass sampling budget used.
	SampleDocs int
}

// SizeEstimation runs both size estimators against every corpus with the
// given per-pass document budget.
func (s *Suite) SizeEstimation(sampleDocs int) ([]SizeRow, error) {
	defer s.timeExp("ext-size")()
	if err := s.prepareCorpora(); err != nil {
		return nil, err
	}
	return parallel.Map(s.workers(), Corpora(), func(_ int, name string) (SizeRow, error) {
		env, err := s.Env(name)
		if err != nil {
			return SizeRow{}, err
		}
		initial, err := s.initialModel(env)
		if err != nil {
			return SizeRow{}, err
		}
		budget := sampleDocs
		if budget > env.Profile.Docs {
			budget = env.Profile.Docs
		}
		cr, err := sizeest.CaptureRecaptureSample(env.Index, initial, budget, s.Seed+hashName(name)+71)
		if err != nil {
			return SizeRow{}, fmt.Errorf("experiments: size %s: %w", name, err)
		}
		cfg := core.DefaultConfig(initial, budget, s.Seed+hashName(name)+73)
		cfg.SnapshotEvery = 0
		res, err := core.Sample(env.Index, cfg)
		if err != nil {
			return SizeRow{}, fmt.Errorf("experiments: size %s: %w", name, err)
		}
		learned := res.Learned.Normalize(env.Index.Analyzer())
		sr, err := sizeest.SampleResample(env.Index, learned, 20, s.Seed+hashName(name)+79)
		if err != nil {
			return SizeRow{}, fmt.Errorf("experiments: size %s: %w", name, err)
		}
		return SizeRow{
			Corpus: name, Actual: env.Profile.Docs, SampleDocs: budget,
			CaptureRecapture:    cr,
			CaptureRecaptureErr: sizeest.RelativeError(cr, env.Profile.Docs),
			SampleResample:      sr,
			SampleResampleErr:   sizeest.RelativeError(sr, env.Profile.Docs),
		}, nil
	})
}

// prepareCorpora warms the three Table 1 corpora (plus the TREC123 initial
// model when needed) concurrently before a per-corpus fan-out.
func (s *Suite) prepareCorpora() error {
	prep := Corpora()
	if s.InitialFromTREC {
		prep = append(prep, "TREC123")
	}
	return s.Prepare(prep...)
}

// StoppingRow is the ext-stop experiment output for one corpus: what the
// §6 rdiff stopping rule costs and buys compared with the fixed budget.
type StoppingRow struct {
	Corpus string
	// Docs is where the convergence rule stopped.
	Docs int
	// CtfRatio and Spearman are the learned-model quality at that point.
	CtfRatio float64
	Spearman float64
	// FixedDocs / FixedCtfRatio / FixedSpearman are the paper's fixed
	// budget and its quality, for comparison.
	FixedDocs     int
	FixedCtfRatio float64
	FixedSpearman float64
}

// StoppingRule evaluates StopWhenConverged(threshold, 2 spans) against the
// paper's fixed budgets on every corpus.
func (s *Suite) StoppingRule(threshold float64) ([]StoppingRow, error) {
	defer s.timeExp("ext-stop")()
	if err := s.prepareCorpora(); err != nil {
		return nil, err
	}
	return parallel.Map(s.workers(), Corpora(), func(_ int, name string) (StoppingRow, error) {
		env, err := s.Env(name)
		if err != nil {
			return StoppingRow{}, err
		}
		initial, err := s.initialModel(env)
		if err != nil {
			return StoppingRow{}, err
		}
		cfg := core.DefaultConfig(initial, 0, s.Seed+hashName(name)+31)
		cfg.Stop = core.StopAny(
			core.StopWhenConverged(threshold, 2, langmodel.ByDF),
			core.StopAfterDocs(env.Profile.Docs),
		)
		res, err := core.Sample(env.Index, cfg)
		if err != nil {
			return StoppingRow{}, fmt.Errorf("experiments: stopping rule on %s: %w", name, err)
		}
		_, ctf, _, rhoSimple := measure(res.Learned, env)
		row := StoppingRow{Corpus: name, Docs: res.Docs, CtfRatio: ctf, Spearman: rhoSimple}

		base, err := s.Baseline(name)
		if err != nil {
			return StoppingRow{}, err
		}
		row.FixedDocs = base.Docs
		if n := len(base.Points); n > 0 {
			row.FixedCtfRatio = base.Points[n-1].CtfRatio
			row.FixedSpearman = base.Points[n-1].SpearmanSimple
		}
		return row, nil
	})
}
