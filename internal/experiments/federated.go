package experiments

import (
	"fmt"
	"io"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/langmodel"
	"repro/internal/parallel"
	"repro/internal/randx"
	"repro/internal/selection"
)

// The ext-fed experiment answers the end-to-end question behind the whole
// paper: if a federated system selects databases with *sampled* language
// models, searches only the selected few, and merges their results, how
// close does retrieval quality come to (a) the same pipeline with perfect
// (actual) models, and (b) an impossible centralized index of everything?
// The relevance oracle is synthetic but unambiguous: a document is
// relevant to a query iff it belongs to the query's source topic and
// contains at least one query term.

// FedResult summarizes the ext-fed experiment.
type FedResult struct {
	// Queries is the number of evaluated queries.
	Queries int
	// SelectDBs is how many databases the federated runs searched.
	SelectDBs int
	// PrecisionCentral is mean P@10 of the single centralized index.
	PrecisionCentral float64
	// PrecisionActual is mean P@10 of select-and-merge with actual models.
	PrecisionActual float64
	// PrecisionSampled is the same with sampled (learned) models.
	PrecisionSampled float64
	// PrecisionRandom is the same selecting databases at random — the
	// floor selection must beat.
	PrecisionRandom float64
}

// FederatedRetrieval builds a federation plus a centralized index over
// the same documents and measures end-to-end P@10 for the four systems.
func FederatedRetrieval(numDBs, docsEach, sampleDocs, nQueries, selectK int, seed uint64, opts ...Option) (*FedResult, error) {
	o := applyOptions(opts)
	defer o.timeExp("ext-fed")()
	dbs, err := Federation(numDBs, docsEach, seed, opts...)
	if err != nil {
		return nil, err
	}
	if selectK <= 0 || selectK > numDBs {
		selectK = 3
	}

	// Centralized baseline: one index over every document. Global doc ids
	// are db*docsEach + localID.
	var all []corpus.Document
	for dbi, db := range dbs {
		for local := 0; local < db.Index.NumDocs(); local++ {
			d, err := db.Index.Fetch(local)
			if err != nil {
				return nil, err
			}
			d.ID = dbi*docsEach + local
			all = append(all, d)
		}
	}
	central := index.Build(all, analysis.Database(), index.InQuery)

	// Models: actual, and learned by sampling each database independently
	// under the worker pool (per-db seeds, database-ordered collection).
	actuals := make([]*langmodel.Model, numDBs)
	for i, db := range dbs {
		actuals[i] = db.Actual
	}
	sampled, err := parallel.Map(o.workers, dbs, func(i int, db *FederationDB) (*langmodel.Model, error) {
		cfg := core.DefaultConfig(db.Actual, sampleDocs, seed+uint64(i)+4242)
		cfg.SnapshotEvery = 0
		res, err := core.Sample(db.Index, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: fed sampling db %d: %w", i, err)
		}
		return res.Learned.Normalize(db.Index.Analyzer()), nil
	})
	if err != nil {
		return nil, err
	}

	queries := federationQueries(dbs, nQueries, seed+777)
	rng := randx.New(seed + 31337)
	res := &FedResult{Queries: len(queries), SelectDBs: selectK}

	for qi, q := range queries {
		topic := qi % numDBs // federationQueries cycles through databases
		queryText := q[0] + " " + q[1]
		relevant := func(dbi, local int) bool {
			if dbi != topic {
				return false
			}
			d, err := dbs[dbi].Index.Fetch(local)
			if err != nil {
				return false
			}
			toks := dbs[dbi].Index.Analyzer().Tokens(d.Text)
			for _, t := range toks {
				if t == q[0] || t == q[1] {
					return true
				}
			}
			return false
		}

		// Centralized.
		ids, err := central.Search(queryText, 10)
		if err != nil {
			return nil, err
		}
		hitsRel := 0
		for _, gid := range ids {
			if relevant(gid/docsEach, gid%docsEach) {
				hitsRel++
			}
		}
		res.PrecisionCentral += float64(hitsRel) / 10

		// Federated with a given model set.
		federated := func(models []*langmodel.Model, randomPick bool) (float64, error) {
			var chosen []int
			if randomPick {
				perm := rng.Perm(numDBs)
				chosen = perm[:selectK]
			} else {
				ranked := selection.Rank(selection.CORI{}, q, models)
				for _, r := range ranked[:selectK] {
					chosen = append(chosen, r.DB)
				}
			}
			var perDB [][]selection.DocScore
			var dbScores []float64
			scores := selection.CORI{}.Scores(q, models)
			for _, dbi := range chosen {
				hits, err := dbs[dbi].Index.SearchScored(queryText, 10)
				if err != nil {
					return 0, err
				}
				list := make([]selection.DocScore, len(hits))
				for i, h := range hits {
					list[i] = selection.DocScore{Doc: dbi*docsEach + h.Doc, Score: h.Score}
				}
				perDB = append(perDB, list)
				dbScores = append(dbScores, scores[dbi])
			}
			merged, err := selection.MergeWeighted(perDB, dbScores, 10)
			if err != nil {
				return 0, err
			}
			rel := 0
			for _, h := range merged {
				if relevant(h.Doc/docsEach, h.Doc%docsEach) {
					rel++
				}
			}
			return float64(rel) / 10, nil
		}

		pa, err := federated(actuals, false)
		if err != nil {
			return nil, err
		}
		ps, err := federated(sampled, false)
		if err != nil {
			return nil, err
		}
		pr, err := federated(actuals, true)
		if err != nil {
			return nil, err
		}
		res.PrecisionActual += pa
		res.PrecisionSampled += ps
		res.PrecisionRandom += pr
	}
	n := float64(len(queries))
	res.PrecisionCentral /= n
	res.PrecisionActual /= n
	res.PrecisionSampled /= n
	res.PrecisionRandom /= n
	return res, nil
}

// WriteFederated renders the ext-fed experiment.
func WriteFederated(w io.Writer, res *FedResult) error {
	fmt.Fprintln(w, "Extension: end-to-end federated retrieval (mean P@10)")
	tw := newTW(w)
	fmt.Fprintf(tw, "Queries\t%d\t(select top %d databases)\n", res.Queries, res.SelectDBs)
	fmt.Fprintf(tw, "Centralized single index\t%.3f\t(upper bound)\n", res.PrecisionCentral)
	fmt.Fprintf(tw, "Select+merge, actual models\t%.3f\t\n", res.PrecisionActual)
	fmt.Fprintf(tw, "Select+merge, sampled models\t%.3f\t(the paper's proposal)\n", res.PrecisionSampled)
	fmt.Fprintf(tw, "Select+merge, random selection\t%.3f\t(floor)\n", res.PrecisionRandom)
	return tw.Flush()
}
