package experiments

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/langmodel"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/summarize"
)

// CurvePoint is one snapshot on a learning curve (Figures 1–3).
type CurvePoint struct {
	// Docs is the number of documents examined at this point.
	Docs int
	// Queries is the number of queries issued by then.
	Queries int
	// PctLearned is the share of the actual vocabulary learned (Fig 1a).
	PctLearned float64
	// CtfRatio is the share of term occurrences covered (Fig 1b, 3a).
	CtfRatio float64
	// Spearman is the tie-corrected rank correlation (Fig 2, 3b).
	Spearman float64
	// SpearmanSimple is the paper's untied formula, for reference.
	SpearmanSimple float64
}

// RdiffPoint is one step of the Figure 4 convergence curve.
type RdiffPoint struct {
	// Docs is the snapshot position; Rdiff compares the models at
	// Docs-interval and Docs.
	Docs  int
	Rdiff float64
}

// BaselineRun is one paper-baseline sampling run (random-llm selection,
// 4 docs/query) with its full metric trace. Figures 1, 2 and 4 are all
// views of the three corpora's baseline runs.
type BaselineRun struct {
	// Corpus names the sampled database.
	Corpus string
	// Points holds metrics at every 50-document snapshot.
	Points []CurvePoint
	// Rdiff holds the between-snapshot rank movement (Figure 4).
	Rdiff []RdiffPoint
	// Queries is the total number of queries issued.
	Queries int
	// FailedQueries is the number that returned nothing.
	FailedQueries int
	// Docs is the total number of documents examined.
	Docs int
}

// measure computes every comparison metric between a raw learned model and
// the environment's actual model, applying the §4.1 protocol: normalize
// the learned vocabulary to the database's conventions first.
func measure(learned *langmodel.Model, env *Env) (pct, ctf, rho, rhoSimple float64) {
	norm := learned.Normalize(env.Index.Analyzer())
	pct = metrics.PercentageLearned(norm, env.Actual)
	ctf = metrics.CtfRatio(norm, env.Actual)
	rho = metrics.Spearman(norm, env.Actual, langmodel.ByDF)
	rhoSimple = metrics.SpearmanSimple(norm, env.Actual, langmodel.ByDF)
	return
}

// curvesFromRun converts a sampling result's snapshots into curve points
// and rdiff steps. Each snapshot's metric evaluation is independent (the
// snapshots are immutable views), so the measurements fan out over a
// worker pool; rdiff needs the previous snapshot too, so it runs as a
// second ordered pass over consecutive pairs. Results are collected in
// snapshot order, so the output is identical to the sequential loop.
func curvesFromRun(res *core.Result, env *Env, workers int) ([]CurvePoint, []RdiffPoint) {
	points, _ := parallel.Map(workers, res.Snapshots, func(_ int, snap core.Snapshot) (CurvePoint, error) {
		pct, ctf, rho, rhoS := measure(snap.Model, env)
		return CurvePoint{
			Docs: snap.Docs, Queries: snap.Queries,
			PctLearned: pct, CtfRatio: ctf,
			Spearman: rho, SpearmanSimple: rhoS,
		}, nil
	})
	rdiffs := make([]RdiffPoint, 0, len(res.Snapshots))
	if len(res.Snapshots) > 1 {
		rdiffs, _ = parallel.Map(workers, res.Snapshots[1:], func(i int, snap core.Snapshot) (RdiffPoint, error) {
			// res.Snapshots[i] is the snapshot preceding snap.
			return RdiffPoint{
				Docs:  snap.Docs,
				Rdiff: metrics.Rdiff(res.Snapshots[i].Model, snap.Model, langmodel.ByDF),
			}, nil
		})
	}
	return points, rdiffs
}

// Baseline runs (and caches) the paper's baseline experiment on one corpus:
// random-llm selection, 4 documents per query, 300 documents (500 for
// TREC123), snapshots every 50 documents.
func (s *Suite) Baseline(name string) (*BaselineRun, error) {
	s.mu.Lock()
	if s.baselines == nil {
		s.baselines = make(map[string]*entry[*BaselineRun])
	}
	e, ok := s.baselines[name]
	if !ok {
		e = &entry[*BaselineRun]{}
		s.baselines[name] = e
	}
	s.mu.Unlock()
	return e.get(func() (*BaselineRun, error) {
		defer s.timeExp("baseline", s.Metrics.Now())
		env, err := s.Env(name)
		if err != nil {
			return nil, err
		}
		initial, err := s.initialModel(env)
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig(initial, s.docBudget(name, env), s.Seed+hashName(name))
		res, err := core.Sample(env.Index, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: baseline %s: %w", name, err)
		}
		points, rdiffs := curvesFromRun(res, env, s.workers())
		return &BaselineRun{
			Corpus: name, Points: points, Rdiff: rdiffs,
			Queries: res.Queries, FailedQueries: res.FailedQueries, Docs: res.Docs,
		}, nil
	})
}

// Baselines runs the baseline experiment on every Table 1 corpus, fanning
// the independent sampling runs out over the suite's worker pool. The
// returned slice is in Corpora() order and byte-identical to calling
// Baseline sequentially (each run is seeded independently).
func (s *Suite) Baselines() ([]*BaselineRun, error) {
	names := Corpora()
	// Build the corpora (and the TREC123 initial model) concurrently
	// first, so the sampling fan-out below starts from warm env caches.
	prep := append([]string(nil), names...)
	if s.InitialFromTREC {
		prep = append(prep, "TREC123")
	}
	if err := s.Prepare(prep...); err != nil {
		return nil, err
	}
	return parallel.Map(s.workers(), names, func(_ int, name string) (*BaselineRun, error) {
		return s.Baseline(name)
	})
}

// Corpora lists the three Table 1 corpora in paper order.
func Corpora() []string { return []string{"CACM", "WSJ88", "TREC123"} }

// Table1 generates the test-corpus summary (Table 1). Corpus builds and
// the stats passes are independent per corpus, so they fan out.
func (s *Suite) Table1() ([]corpus.Stats, error) {
	defer s.timeExp("table1", s.Metrics.Now())
	return parallel.Map(s.workers(), Corpora(), func(_ int, name string) (corpus.Stats, error) {
		env, err := s.Env(name)
		if err != nil {
			return corpus.Stats{}, err
		}
		return corpus.ComputeStats(env.Profile.Name, env.Docs, analysis.Raw()), nil
	})
}

// Table2Row reports, for one (corpus, docs-per-query) pair, how many
// documents were needed to reach a ctf ratio of 80% and the Spearman
// coefficient at that point (Table 2).
type Table2Row struct {
	Corpus string
	// N is documents examined per query.
	N int
	// Docs is the number of documents at which ctf ratio crossed 0.80
	// (0 if never crossed within the budget).
	Docs int
	// SRCC is the Spearman coefficient (paper formula, dense shared
	// ranks) at that point.
	SRCC float64
	// Queries is how many queries that took.
	Queries int
}

// ctfThresholdStop stops a run as soon as the normalized learned model
// covers the threshold share of the actual model's term occurrences. It is
// an oracle condition (it peeks at the actual model), used only to measure
// *when* the crossing happens, as Table 2 does.
type ctfThresholdStop struct {
	env       *Env
	threshold float64
	lastDocs  int
	done      bool
}

func (c *ctfThresholdStop) Name() string { return fmt.Sprintf("ctf-ratio>=%.2f", c.threshold) }

func (c *ctfThresholdStop) Done(st *core.State) bool {
	if c.done {
		return true
	}
	// Recheck only when new documents arrived; normalization is not free.
	if st.Docs == c.lastDocs {
		return false
	}
	c.lastDocs = st.Docs
	norm := st.Learned.Normalize(c.env.Index.Analyzer())
	if metrics.CtfRatio(norm, c.env.Actual) >= c.threshold {
		c.done = true
	}
	return c.done
}

// Table2 measures the cost of reaching an 80% ctf ratio for each
// documents-per-query setting (Table 2; the paper tests N = 1,2,4,6,8,10).
func (s *Suite) Table2(name string, ns []int) ([]Table2Row, error) {
	defer s.timeExp("table2", s.Metrics.Now())
	env, err := s.Env(name)
	if err != nil {
		return nil, err
	}
	initial, err := s.initialModel(env)
	if err != nil {
		return nil, err
	}
	// Each documents-per-query setting is an independent run with its own
	// seed, so the sweep fans out over the worker pool.
	return parallel.Map(s.workers(), ns, func(_ int, n int) (Table2Row, error) {
		stop := &ctfThresholdStop{env: env, threshold: 0.80}
		cfg := core.Config{
			DocsPerQuery:  n,
			Selector:      core.RandomLLM{},
			Stop:          core.StopAny(stop, core.StopAfterDocs(env.Profile.Docs)),
			InitialModel:  initial,
			Analyzer:      analysis.Raw(),
			SnapshotEvery: 0,
			Seed:          s.Seed + hashName(name) + uint64(n),
		}
		res, err := core.Sample(env.Index, cfg)
		if err != nil {
			return Table2Row{}, fmt.Errorf("experiments: table2 %s N=%d: %w", name, n, err)
		}
		row := Table2Row{Corpus: name, N: n, Queries: res.Queries}
		if stop.done {
			row.Docs = res.Docs
			_, _, _, rhoSimple := measure(res.Learned, env)
			row.SRCC = rhoSimple
		}
		return row, nil
	})
}

// StrategyRun is one query-selection-strategy run (Figure 3, Table 3).
type StrategyRun struct {
	// Strategy is the selector name (random-olm, random-llm, df-llm, ...).
	Strategy string
	// Points holds the metric curve at 50-document snapshots.
	Points []CurvePoint
	// Queries is the total query count to reach the document budget —
	// the Table 3 value.
	Queries int
	// FailedQueries is the subset returning no documents.
	FailedQueries int
	// Docs is the documents actually examined.
	Docs int
}

// StrategyNames lists the §5.2 strategies in the paper's column order.
func StrategyNames() []string {
	return []string{"random-olm", "random-llm", "avg-tf-llm", "df-llm", "ctf-llm"}
}

// Strategies runs the query-selection-strategy comparison on one corpus
// (the paper reports WSJ88, §5.2). The random-olm strategy draws terms
// from the actual TREC123 model, exactly as the paper does.
func (s *Suite) Strategies(name string) ([]StrategyRun, error) {
	s.mu.Lock()
	if s.strategies == nil {
		s.strategies = make(map[string]*entry[[]StrategyRun])
	}
	e, ok := s.strategies[name]
	if !ok {
		e = &entry[[]StrategyRun]{}
		s.strategies[name] = e
	}
	s.mu.Unlock()
	return e.get(func() ([]StrategyRun, error) {
		defer s.timeExp("strategies", s.Metrics.Now())
		env, err := s.Env(name)
		if err != nil {
			return nil, err
		}
		initial, err := s.initialModel(env)
		if err != nil {
			return nil, err
		}
		trec, err := s.Env("TREC123")
		if err != nil {
			return nil, err
		}
		selectors := []core.TermSelector{
			core.RandomOLM{Other: trec.Actual},
			core.RandomLLM{},
			core.FrequencyLLM{Metric: langmodel.ByAvgTF},
			core.FrequencyLLM{Metric: langmodel.ByDF},
			core.FrequencyLLM{Metric: langmodel.ByCTF},
		}
		budget := s.docBudget(name, env)
		// The five strategy runs are independent (per-selector seeds), so
		// they fan out; results collect in the paper's column order.
		return parallel.Map(s.workers(), selectors, func(i int, sel core.TermSelector) (StrategyRun, error) {
			cfg := core.Config{
				DocsPerQuery:  4,
				Selector:      sel,
				Stop:          core.StopAfterDocs(budget),
				InitialModel:  initial,
				Analyzer:      analysis.Raw(),
				SnapshotEvery: 50,
				Seed:          s.Seed + hashName(name) + uint64(1000+i),
			}
			res, err := core.Sample(env.Index, cfg)
			if err != nil {
				return StrategyRun{}, fmt.Errorf("experiments: strategy %s on %s: %w", sel.Name(), name, err)
			}
			points, _ := curvesFromRun(res, env, s.workers())
			return StrategyRun{
				Strategy: sel.Name(), Points: points,
				Queries: res.Queries, FailedQueries: res.FailedQueries, Docs: res.Docs,
			}, nil
		})
	})
}

// StrategyMatrix runs the full strategy comparison on several corpora at
// once — the Figure 3 matrix — fanning out both across corpora and across
// the five selectors within each corpus. The result is indexed like the
// names argument and byte-identical to sequential Strategies calls.
func (s *Suite) StrategyMatrix(names []string) ([][]StrategyRun, error) {
	prep := append([]string(nil), names...)
	prep = append(prep, "TREC123") // random-olm always draws from TREC123
	if err := s.Prepare(prep...); err != nil {
		return nil, err
	}
	return parallel.Map(s.workers(), names, func(_ int, name string) ([]StrategyRun, error) {
		return s.Strategies(name)
	})
}

// Table4Result is the §7 summary of the sampled Support database.
type Table4Result struct {
	// Rows is the top-k terms of the learned model ranked by avg-tf.
	Rows []summarize.Row
	// SeededFound is how many of the corpus's 50 seeded product terms
	// (the paper's Table 4 words) appear among the top-k rows.
	SeededFound int
	// DocsSampled and Queries describe the sampling cost.
	DocsSampled int
	Queries     int
}

// Table4 samples the Support database at 25 documents per query (as the
// paper's earliest experiment did, §7) and summarizes it by avg-tf.
func (s *Suite) Table4(topK int) (*Table4Result, error) {
	defer s.timeExp("table4", s.Metrics.Now())
	env, err := s.Env("Support")
	if err != nil {
		return nil, err
	}
	// The Support corpus vocabulary is disjoint from TREC123's topical
	// vocabulary except for function words; the paper sampled this
	// database directly, so the initial term comes from its own model
	// regardless of InitialFromTREC.
	initial := env.Actual
	budget := 300
	if budget > env.Profile.Docs {
		budget = env.Profile.Docs
	}
	cfg := core.Config{
		DocsPerQuery: 25, // §7: "25 documents were examined per query"
		Selector:     core.RandomLLM{},
		Stop:         core.StopAfterDocs(budget),
		InitialModel: initial,
		Analyzer:     analysis.Raw(),
		Seed:         s.Seed + hashName("Support"),
	}
	res, err := core.Sample(env.Index, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: table4: %w", err)
	}
	rows := summarize.Top(res.Learned, langmodel.ByAvgTF, topK, analysis.InqueryStoplist())
	seeded := make(map[string]bool, 50)
	for _, t := range corpus.Table4Terms() {
		seeded[t] = true
	}
	found := 0
	for _, r := range rows {
		if seeded[r.Term] {
			found++
		}
	}
	return &Table4Result{
		Rows: rows, SeededFound: found,
		DocsSampled: res.Docs, Queries: res.Queries,
	}, nil
}

// hashName gives each corpus a stable seed offset.
func hashName(name string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}
