package core

import (
	"errors"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/langmodel"
	"repro/internal/randx"
)

// Config parameterizes a sampling run. The zero value is not usable; see
// the field comments for required settings. DefaultConfig fills in the
// paper's baseline parameters.
type Config struct {
	// DocsPerQuery is N, the number of top-ranked documents examined per
	// query (§5.1). The paper's baseline is 4.
	DocsPerQuery int
	// Selector chooses query terms (§5.2). The baseline is RandomLLM.
	Selector TermSelector
	// Stop decides when sampling ends (§6). Required.
	Stop StopCondition
	// InitialModel supplies the first query term, drawn at random from its
	// eligible vocabulary. The paper always drew the first term from the
	// actual TREC-123 model (§4.4) and found the choice immaterial. At
	// most one of InitialModel and InitialTerm may be set; with neither,
	// the term comes from a fixed built-in model of 15 common words, so
	// the learned model depends on nothing but the database and Config.
	InitialModel *langmodel.Model
	// InitialTerm fixes the first query term explicitly. With InitialTerm
	// set and no InitialModel, a run whose learned model offers no term
	// mid-run ends exhausted rather than drawing from the built-in model.
	InitialTerm string
	// Analyzer is the pipeline applied to sampled documents when updating
	// the learned model. The paper builds learned models raw — no stopword
	// removal, no stemming (§4.1) — so the default is analysis.Raw().
	Analyzer analysis.Analyzer
	// SnapshotEvery, when positive, clones the learned model every that
	// many documents (the paper's metric curves are sampled at 50-document
	// intervals). Snapshots power StopWhenConverged and the experiment
	// harness.
	SnapshotEvery int
	// MaxQueries is a safety valve against databases too small or too
	// repetitive for the stop condition to be reachable. 0 means 100000.
	MaxQueries int
	// OnQuery, when non-nil, is called after every query round with a
	// trace event — the observability hook cmd/qbsample -verbose and the
	// experiment harness use. The callback must not retain Event.Learned.
	OnQuery func(Event)
	// Seed makes the run deterministic.
	Seed uint64
}

// Event describes one completed query round for tracing.
type Event struct {
	// Query is the term that was issued.
	Query string
	// Hits is how many documents the database returned.
	Hits int
	// NewDocs is how many of them had not been seen before.
	NewDocs int
	// TotalDocs and TotalQueries are running counters after this round.
	TotalDocs    int
	TotalQueries int
	// VocabSize is the learned vocabulary size after this round.
	VocabSize int
	// Learned is the live learned model (read-only; do not retain).
	Learned *langmodel.Model
}

// DefaultConfig returns the paper's baseline configuration: 4 documents
// per query, random selection from the learned model, stop after docs
// documents, snapshots every 50 documents.
func DefaultConfig(initial *langmodel.Model, docs int, seed uint64) Config {
	return Config{
		DocsPerQuery:  4,
		Selector:      RandomLLM{},
		Stop:          StopAfterDocs(docs),
		InitialModel:  initial,
		Analyzer:      analysis.Raw(),
		SnapshotEvery: 50,
		Seed:          seed,
	}
}

func (c *Config) validate() error {
	if c.DocsPerQuery <= 0 {
		return errors.New("core: DocsPerQuery must be positive")
	}
	if c.Selector == nil {
		return errors.New("core: Selector is required")
	}
	if c.Stop == nil {
		return errors.New("core: Stop condition is required")
	}
	if c.InitialTerm != "" && c.InitialModel != nil {
		return errors.New("core: InitialTerm and InitialModel are mutually exclusive")
	}
	return nil
}

// seedModel is the first-term source of a run that names none: one
// document of common words, frozen, so every run shares it read-only.
var seedModel = func() *langmodel.Model {
	m := langmodel.New()
	m.AddDocument([]string{
		"the", "and", "for", "that", "with", "this", "from", "have",
		"new", "time", "year", "people", "world", "data", "system",
	})
	return m.Snapshot()
}()

// Snapshot is a periodic frozen view of the learned model during a run.
type Snapshot struct {
	// Docs is the number of documents examined when the snapshot was taken.
	Docs int
	// Queries is the number of queries issued by then.
	Queries int
	// Model is an immutable view of the learned model at that point
	// (langmodel.Model.Snapshot). Treat it as read-only; call
	// Clone to get a mutable copy.
	Model *langmodel.Model
}

// Result reports a completed sampling run.
type Result struct {
	// Learned is the final learned language model.
	Learned *langmodel.Model
	// Docs is the number of distinct documents examined.
	Docs int
	// DocIDs lists the distinct documents examined, in first-seen order.
	// Size estimators (capture-recapture) need the identities, not just
	// the count.
	DocIDs []int
	// QueryTerms lists every query issued, in order. Resume uses it to
	// avoid re-running old queries; it is also a complete audit trail of
	// what the sampler asked the database.
	QueryTerms []string
	// Queries is the total number of queries issued, including failed ones
	// (Table 3 counts these).
	Queries int
	// FailedQueries is the number of queries that returned no documents —
	// terms the database does not index.
	FailedQueries int
	// ZeroNewQueries counts queries whose documents had all been seen
	// before; they cost a round-trip but add nothing to the sample.
	ZeroNewQueries int
	// Snapshots holds the periodic model snapshots, oldest first.
	Snapshots []Snapshot
	// Exhausted is true when sampling ended because no eligible query term
	// remained or MaxQueries was hit, rather than because Stop was
	// satisfied.
	Exhausted bool
}

// Sample runs query-based sampling against db. It is deterministic for a
// given (db, cfg) pair.
func Sample(db Database, cfg Config) (*Result, error) {
	return sample(db, cfg, nil)
}

// Resume continues a previous run against the same database: the learned
// model, examined documents, and issued queries of prev are carried over,
// and sampling proceeds until cfg.Stop is satisfied (counters include the
// previous run, so e.g. StopAfterDocs(800) after a 500-document run
// samples 300 more). The paper relies on exactly this property: "sampling
// can be continued to reach whatever level of correlation is required"
// (§5). prev is not modified.
func Resume(db Database, cfg Config, prev *Result) (*Result, error) {
	if prev == nil {
		return nil, errors.New("core: Resume requires a previous result")
	}
	return sample(db, cfg, prev)
}

func sample(db Database, cfg Config, prev *Result) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	maxQueries := cfg.MaxQueries
	if maxQueries == 0 {
		maxQueries = 100000
	}
	rng := randx.New(cfg.Seed)
	learned := langmodel.New()
	used := make(map[string]bool)
	seenDocs := make(map[int]bool)
	res := &Result{Learned: learned}
	if prev != nil {
		learned = prev.Learned.Clone()
		res.Learned = learned
		res.Docs = prev.Docs
		res.DocIDs = append(res.DocIDs, prev.DocIDs...)
		res.Queries = prev.Queries
		res.FailedQueries = prev.FailedQueries
		res.ZeroNewQueries = prev.ZeroNewQueries
		res.QueryTerms = append(res.QueryTerms, prev.QueryTerms...)
		res.Snapshots = append(res.Snapshots, prev.Snapshots...)
		for _, id := range prev.DocIDs {
			seenDocs[id] = true
		}
		for _, t := range prev.QueryTerms {
			used[t] = true
		}
	}
	initial := cfg.InitialModel
	if initial == nil && cfg.InitialTerm == "" {
		initial = seedModel
	}
	state := &State{Learned: learned}
	nextSnapshot := cfg.SnapshotEvery
	if cfg.SnapshotEvery > 0 {
		for nextSnapshot <= res.Docs {
			nextSnapshot += cfg.SnapshotEvery
		}
	}

	// The first query term comes from the initial model or is fixed; a
	// resumed run continues with the configured selector instead.
	var term string
	ok := true
	switch {
	case prev != nil:
		term, ok = cfg.Selector.Next(learned, used, rng)
		if !ok && initial != nil {
			term, ok = randomEligible(initial, used, rng)
		}
		if !ok {
			res.Exhausted = true
			return res, nil
		}
	case cfg.InitialTerm != "":
		term = cfg.InitialTerm
	default:
		term, ok = randomEligible(initial, used, rng)
		if !ok {
			return nil, errors.New("core: initial model has no eligible query term")
		}
	}

	var (
		unseen []int    // one query's hits not yet examined
		toks   []string // one document's tokens; AddDocument keeps none of them
	)
	for {
		used[term] = true
		res.QueryTerms = append(res.QueryTerms, term)
		hits, err := db.Search(term, cfg.DocsPerQuery)
		if err != nil {
			return nil, fmt.Errorf("core: query %q: %w", term, err)
		}
		res.Queries++
		if len(hits) == 0 {
			res.FailedQueries++
		}
		// All of a query's unseen hits are known before the first is
		// fetched, so they are fetched together and then folded in hit
		// order: the same documents in the same order as one at a time.
		unseen = unseen[:0]
		for _, id := range hits {
			if !seenDocs[id] {
				seenDocs[id] = true
				unseen = append(unseen, id)
			}
		}
		newDocs := len(unseen)
		if newDocs > 0 {
			res.DocIDs = append(res.DocIDs, unseen...)
			docs, err := fetchAll(db, unseen)
			if err != nil {
				return nil, err
			}
			for _, doc := range docs {
				toks = cfg.Analyzer.AppendTokens(toks[:0], doc.Text)
				learned.AddDocument(toks)
				res.Docs++
				if cfg.SnapshotEvery > 0 && res.Docs >= nextSnapshot {
					res.Snapshots = append(res.Snapshots, Snapshot{
						Docs:    res.Docs,
						Queries: res.Queries,
						Model:   learned.Snapshot(),
					})
					nextSnapshot += cfg.SnapshotEvery
				}
			}
		}
		if len(hits) > 0 && newDocs == 0 {
			res.ZeroNewQueries++
		}
		if cfg.OnQuery != nil {
			cfg.OnQuery(Event{
				Query:        term,
				Hits:         len(hits),
				NewDocs:      newDocs,
				TotalDocs:    res.Docs,
				TotalQueries: res.Queries,
				VocabSize:    learned.VocabSize(),
				Learned:      learned,
			})
		}

		state.Docs = res.Docs
		state.Queries = res.Queries
		state.Snapshots = res.Snapshots
		if cfg.Stop.Done(state) {
			return res, nil
		}
		if res.Queries >= maxQueries {
			res.Exhausted = true
			return res, nil
		}
		term, ok = cfg.Selector.Next(learned, used, rng)
		if !ok && initial != nil {
			// The selector has nothing to offer — typically the learned
			// model is still empty because the first queries failed. Keep
			// drawing terms from the initial model until sampling takes
			// hold (the paper's initial term was a random TREC-123 word
			// that need not occur in the sampled database).
			term, ok = randomEligible(initial, used, rng)
		}
		if !ok {
			res.Exhausted = true
			return res, nil
		}
	}
}
