// Package experiments reproduces every table and figure of the paper's
// evaluation (§4–§7), plus the extension experiments listed in DESIGN.md.
// Each experiment is a method on Suite returning structured rows; cmd/
// experiments prints them paper-style and bench_test.go wraps them in
// testing.B benchmarks. Everything is deterministic for a given Suite
// configuration.
//
// Every experiment is a set of independent sampling runs, each driven by
// its own seed, so the suite fans out over internal/parallel worker pools:
// Suite.Parallel caps the concurrency, and results are collected in input
// order, making parallel output byte-identical to the sequential path
// (asserted by the golden tests in parallel_test.go). Suite itself is safe
// for concurrent use: the env/baseline/strategy caches build each entry
// exactly once behind a per-key sync.Once.
package experiments

import (
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/langmodel"
	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// Env is a prepared test database: generated corpus, built index, and the
// actual (ground truth) language model.
type Env struct {
	// Profile is the corpus recipe used.
	Profile corpus.Profile
	// Docs is the generated corpus.
	Docs []corpus.Document
	// Index is the database's own index (stopped + stemmed, InQuery
	// ranking), playing the paper's INQUERY role.
	Index *index.Index
	// Actual is the database's actual language model.
	Actual *langmodel.Model
}

// entry is a build-once cache slot: the per-key sync.Once lets distinct
// keys build concurrently while concurrent requests for the same key block
// on a single build.
type entry[T any] struct {
	once sync.Once
	val  T
	err  error
}

// get returns the cached value, building it on first use.
func (e *entry[T]) get(build func() (T, error)) (T, error) {
	e.once.Do(func() { e.val, e.err = build() })
	return e.val, e.err
}

// Suite prepares and caches the experiment databases.
type Suite struct {
	// Scale multiplies every profile's document count; 1.0 runs the
	// default (DESIGN.md) sizes. Tests use small scales.
	Scale float64
	// Seed offsets all sampling seeds, so suites can be replicated.
	Seed uint64
	// InitialFromTREC, when true, draws every run's first query term from
	// the actual TREC123 model, exactly as the paper does (§4.4). When
	// false (unit tests, quick runs) the first term comes from the sampled
	// database's own model — the paper found the choice immaterial, and
	// this avoids building the largest corpus for small experiments.
	InitialFromTREC bool
	// Parallel caps the number of concurrent sampling runs (and of
	// concurrent per-snapshot metric evaluations inside each run). 0 means
	// one worker per CPU (GOMAXPROCS); 1 runs strictly sequentially.
	// Results are byte-identical either way — every run has its own seed.
	Parallel int
	// Metrics, when non-nil, receives per-experiment wall time
	// (experiments_run_seconds{exp="…"}) and per-corpus env build time
	// (experiments_env_build_seconds{env="…"}). All timing goes through
	// the registry's injectable clock — experiment *results* never depend
	// on it.
	Metrics *telemetry.Registry

	mu         sync.Mutex
	envs       map[string]*entry[*Env]
	baselines  map[string]*entry[*BaselineRun]
	strategies map[string]*entry[[]StrategyRun]
}

// NewSuite returns a Suite at the given scale.
func NewSuite(scale float64, seed uint64) *Suite {
	return &Suite{Scale: scale, Seed: seed, InitialFromTREC: true}
}

// WithSharedEnvs returns a new Suite that shares s's prepared corpora and
// indexes but none of its cached experiment runs. Benchmarks use it to
// time experiment runs without re-generating corpora on every iteration.
func (s *Suite) WithSharedEnvs(seed uint64) *Suite {
	s.mu.Lock()
	defer s.mu.Unlock()
	envs := make(map[string]*entry[*Env], len(s.envs))
	for k, v := range s.envs {
		envs[k] = v
	}
	return &Suite{
		Scale:           s.Scale,
		Seed:            seed,
		InitialFromTREC: s.InitialFromTREC,
		Parallel:        s.Parallel,
		envs:            envs,
	}
}

// workers resolves the suite's concurrency cap.
func (s *Suite) workers() int { return parallel.Workers(s.Parallel) }

// timeExp returns a stop function observing one experiment's wall time
// under experiments_run_seconds{exp="…"} — the per-experiment cost view
// cmd/experiments prints with -timing. A nil Metrics registry makes it
// free. exp values come from the fixed experiment id set (table1, fig1,
// …, ext-fed), so cardinality is bounded.
func (s *Suite) timeExp(exp string) func() time.Duration {
	return s.Metrics.Timer(`experiments_run_seconds{exp="` + exp + `"}`)
}

// envEntry returns (creating if needed) the cache slot for a corpus. Only
// the map access is under the suite lock; the build itself runs outside
// it, so different corpora can build concurrently.
func (s *Suite) envEntry(name string) *entry[*Env] {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.envs == nil {
		s.envs = make(map[string]*entry[*Env])
	}
	e, ok := s.envs[name]
	if !ok {
		e = &entry[*Env]{}
		s.envs[name] = e
	}
	return e
}

// Env returns the prepared environment for one of the paper corpora
// ("CACM", "WSJ88", "TREC123", "Support"), building and caching it on
// first use. Safe for concurrent use.
func (s *Suite) Env(name string) (*Env, error) {
	return s.envEntry(name).get(func() (*Env, error) {
		defer s.Metrics.Timer(`experiments_env_build_seconds{env="` + name + `"}`)()
		p, err := corpus.ByName(name)
		if err != nil {
			return nil, err
		}
		if s.Scale > 0 && s.Scale != 1 {
			p = corpus.Scaled(p, s.Scale)
		}
		docs, err := p.Generate()
		if err != nil {
			return nil, err
		}
		ix := index.Build(docs, analysis.Database(), index.InQuery)
		return &Env{Profile: p, Docs: docs, Index: ix, Actual: ix.LanguageModel()}, nil
	})
}

// Prepare builds the named corpora concurrently (bounded by Parallel) so a
// following fan-out starts from warm caches. Duplicate names are fine.
func (s *Suite) Prepare(names ...string) error {
	return parallel.ForN(s.workers(), len(names), func(i int) error {
		_, err := s.Env(names[i])
		return err
	})
}

// initialModel returns the model the first query term is drawn from for a
// run against env (see InitialFromTREC).
func (s *Suite) initialModel(env *Env) (*langmodel.Model, error) {
	if !s.InitialFromTREC {
		return env.Actual, nil
	}
	trec, err := s.Env("TREC123")
	if err != nil {
		return nil, err
	}
	return trec.Actual, nil
}

// docBudget returns the paper's sampling budget for a corpus (300 docs for
// CACM and WSJ88, 500 for TREC123, §4.4), clamped to the scaled corpus
// size so tiny test suites still terminate.
func (s *Suite) docBudget(name string, env *Env) int {
	budget := 300
	if name == "TREC123" {
		budget = 500
	}
	if n := env.Profile.Docs; budget > n {
		budget = n
	}
	return budget
}
