package service

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/selection"
	"repro/internal/serving"
	"repro/internal/telemetry"
)

// The read path's rank entry points (the reader type is in snapshot.go).
// Rank is a batch of one through the same core as the batch; the batch is
// the high-QPS serving entry point (DESIGN.md §10, §14). A batch request
// carries many queries that share one algorithm and one k; the reader
// parses the algorithm once, acquires the compiled snapshot once,
// and reuses a single pooled rankScratch across every query — so the
// per-query cost converges on pure tokenize+score, with the per-request
// overhead (pool round-trips, snapshot load, timer, HTTP envelope when
// called over the wire) amortized across the batch.
//
// Two layers of coalescing ride on top (DESIGN.md §10): identical queries
// *within* one batch rank once and copy into each position
// (rank_coalesced_total{scope=batch}), and a batch item identical to any
// rank in flight elsewhere — another batch, a single /rank — joins that
// flight instead of recomputing (scope=flight). Both are bit-identical to
// independent ranks because every path funnels into rankSnapshot against
// the same epoch's snapshot.

// RankedDB is one row of a selection ranking and BatchItem one query's
// outcome inside a batch ranking: the serving core's types, under the
// names this package has always exported. Batch items fail independently:
// a query that tokenizes to nothing reports its error in its item while
// its neighbors still rank.
type (
	RankedDB  = serving.RankedDB
	BatchItem = serving.Item
)

// parseAlgorithm resolves an algorithm name to its selection.Algorithm.
// "cori" (or "") selects CORI; "gloss-sum" and "gloss-ind" select the
// GlOSS estimators, optionally with an "@l" threshold suffix (e.g.
// "gloss-sum@0.2" for GlOSS(0.2)) in [0, 1].
func parseAlgorithm(algName string) (selection.Algorithm, error) {
	base, thr, hasThr := strings.Cut(algName, "@")
	var threshold float64
	if hasThr {
		v, err := strconv.ParseFloat(thr, 64)
		if err != nil || v < 0 || v > 1 {
			return nil, fmt.Errorf("service: bad algorithm threshold %q (want a number in [0,1]): %w", thr, ErrInvalid)
		}
		threshold = v
	}
	switch base {
	case "", "cori":
		if hasThr {
			return nil, fmt.Errorf("service: algorithm %q does not take a threshold: %w", base, ErrInvalid)
		}
		return selection.CORI{}, nil
	case "gloss-sum":
		return selection.Gloss{Estimator: selection.GlossSum, Threshold: threshold}, nil
	case "gloss-ind":
		return selection.Gloss{Estimator: selection.GlossInd, Threshold: threshold}, nil
	}
	return nil, fmt.Errorf("service: unknown algorithm %q: %w", algName, ErrInvalid)
}

// rankScratch is the per-query working memory of the serving path — token
// list, interned term ids, dense scores, ranking — recycled through a pool
// so a Rank allocates only its flight, the result it computes and the copy
// it hands back.
type rankScratch struct {
	terms  []string
	ids    []int32
	scores []float64
	ranked []selection.Ranked
	key    []byte
}

var rankScratchPool = sync.Pool{New: func() any { return new(rankScratch) }}

// Rank scores every database with a learned model against the query and
// returns them best first. algName is "cori" (default), "gloss-sum" or
// "gloss-ind", the latter two optionally suffixed "@l" for a GlOSS
// threshold. Query text is analyzed with the service's pipeline.
//
// Rank is the service's Select operation, a batch of one through the core
// RankBatchStream runs, so both refuse a request the same way and in the
// same order: a federation with no models is ErrNoModels whatever the
// query, and a query with no index terms is ErrInvalid. Its latency is
// observed into service_select_seconds and its outcomes into
// service_selects_total / service_select_errors_total. Scoring runs
// against the compiled snapshot (snapshot.go) — no registry lock is taken
// on the way — and a rank identical to one already in flight waits for
// that one's answer (service_rank_coalesced_total{scope="flight"}).
func (r *reader) Rank(query string, algName string, k int) ([]RankedDB, error) {
	reg := r.Metrics()
	defer reg.Timer("service_select_seconds")()
	// One per computed single rank ("a leader that computed"), kept only
	// because benchmark/bench/layers.go:364-396 reads it to tell a computed
	// replay from a repeated one (ROADMAP item 10(f)).
	misses := reg.Counter("service_select_cache_misses_total")
	var out []RankedDB
	err := r.rankEach(reg, []string{query}, algName, k, misses, func(_ int, ranked []RankedDB, err error) error {
		if err != nil {
			reg.Counter("service_select_errors_total").Inc()
		}
		out = ranked
		return err
	})
	if err == nil {
		reg.Counter("service_selects_total").Inc()
	}
	return out, err
}

// analyze tokenizes query into scr.terms and builds its flight key in
// scr.key: the analyzed terms joined with 0x1f (a byte the tokenizer never
// emits), so equal term sequences collide and raw query spelling does not.
// It reports whether the query has any index terms. The terms are slices
// of query (stems too, where stemming only stripped a suffix) and are only
// looked up before the scratch is reused; what outlives the request is the
// key, which is a copy.
func (scr *rankScratch) analyze(an analysis.Analyzer, query string) bool {
	scr.terms = an.AppendTokens(scr.terms[:0], query)
	scr.key = scr.key[:0]
	for i, t := range scr.terms {
		if i > 0 {
			scr.key = append(scr.key, 0x1f)
		}
		scr.key = append(scr.key, t...)
	}
	return len(scr.terms) > 0
}

// rankSnapshot scores and ranks against a compiled snapshot using the
// pooled scratch buffers; only the returned result is freshly allocated.
func (r *reader) rankSnapshot(snap *snapshotSet, alg selection.Algorithm, scr *rankScratch, k int) []RankedDB {
	c := snap.compiled
	scr.ids = c.AppendIDs(scr.ids[:0], scr.terms)
	if cap(scr.scores) < c.NumDBs() {
		scr.scores = make([]float64, c.NumDBs())
	}
	scr.scores = scr.scores[:c.NumDBs()]
	ranked, ok := c.RankTopInto(alg, scr.ids, scr.scores, scr.ranked, k)
	scr.ranked = ranked
	if !ok {
		// parseAlgorithm only yields CORI/Gloss, which ScoreInto always
		// accepts; reaching here means a new family was added to one side.
		panic("service: algorithm " + alg.Name() + " is not compiled")
	}
	out := make([]RankedDB, len(ranked))
	for i, r := range ranked {
		out[i] = RankedDB{Name: snap.names[r.DB], Score: r.Score}
	}
	return out
}

// RankBatch ranks every query in the batch against the same compiled
// snapshot, returning one BatchItem per query in input order. Whole-batch
// failures — an unknown algorithm (ErrInvalid), an empty batch
// (ErrInvalid), a federation with no learned models (ErrNoModels) — are
// returned as an error; per-query problems land in the item's Error.
//
// RankBatch scores exactly like Rank (both run rankEach), so batched and
// sequential rankings are bit-identical, and coalesces through the same
// in-flight map.
func (r *reader) RankBatch(queries []string, algName string, k int) ([]BatchItem, error) {
	return serving.RankBatch(context.TODO(), tier{r}, queries, algName, k)
}

// RankBatchStream is RankBatch's streaming core: emit is called once per
// query, in input order, the moment that query's ranking completes — the
// HTTP layer flushes each item to the client instead of buffering the
// batch (POST /rank/batch?stream=1). A non-nil error from emit aborts the
// stream (the client disconnected); the error is returned as-is. Whole-
// batch failures are detected and returned before the first emit, so the
// HTTP layer can still answer them with a plain status code.
//
// The emitted Ranked slice is the caller's to keep: it is a fresh copy,
// never shared with the coalescer or other emits.
func (r *reader) RankBatchStream(queries []string, algName string, k int, emit func(i int, item BatchItem) error) error {
	reg := r.Metrics()
	defer reg.Timer("service_rank_batch_seconds")()
	err := r.rankEach(reg, queries, algName, k, nil, func(i int, ranked []RankedDB, err error) error {
		item := BatchItem{Ranked: ranked}
		if err != nil {
			item.Error = err.Error()
		}
		return emit(i, item)
	})
	if err != nil {
		return err
	}
	reg.Counter("service_batch_ranks_total").Inc()
	reg.Counter("service_batch_queries_total").Add(int64(len(queries)))
	return nil
}

// rankEach is the one rank core under Rank and RankBatchStream. It refuses
// a whole request — an empty batch or an unknown algorithm (ErrInvalid), a
// federation with no learned models (ErrNoModels) — before its first emit,
// counting it in service_select_errors_total. Then it emits, in input
// order, each query's ranking (a fresh copy) or that query's own typed
// error, and returns the first error emit returns. misses, when non-nil,
// counts the rankings this call computed rather than shared.
func (r *reader) rankEach(reg *telemetry.Registry, queries []string, algName string, k int, misses *telemetry.Counter, emit func(i int, ranked []RankedDB, err error) error) error {
	if len(queries) == 0 {
		reg.Counter("service_select_errors_total").Inc()
		return fmt.Errorf("service: empty batch: %w", ErrInvalid)
	}
	alg, err := parseAlgorithm(algName)
	if err != nil {
		reg.Counter("service_select_errors_total").Inc()
		return err
	}
	snap := r.snapshot()
	if snap.compiled.NumDBs() == 0 {
		reg.Counter("service_select_errors_total").Inc()
		return ErrNoModels
	}
	algName = alg.Name()

	scr := rankScratchPool.Get().(*rankScratch)
	defer rankScratchPool.Put(scr)

	// seen holds this batch's completed rankings by term key, so a query
	// repeated within the batch ranks once — the slices are shared across
	// positions internally and copied per emit.
	var seen map[string][]RankedDB
	if len(queries) > 1 {
		seen = make(map[string][]RankedDB, len(queries))
	}
	for i, q := range queries {
		if !scr.analyze(r.analyzer, q) {
			if err := emit(i, nil, fmt.Errorf("service: query has no index terms: %w", ErrInvalid)); err != nil {
				return err
			}
			continue
		}
		termKey := string(scr.key)
		val, ok := seen[termKey]
		if ok {
			reg.Counter(`service_rank_coalesced_total{scope="batch"}`).Inc()
		} else {
			key := flightKey{Query: termKey, Alg: algName, K: k, Epoch: snap.epoch}
			val, err = r.flights.do(key, func() ([]RankedDB, error) {
				misses.Inc()
				return r.rankSnapshot(snap, alg, scr, k), nil
			})
			if err != nil {
				// The flight this item joined failed (its leader panicked).
				// Deliver the error to this position — it asked for exactly
				// that computation — but keep it out of `seen`, so a later
				// duplicate retries fresh instead of inheriting the failure.
				if err := emit(i, nil, err); err != nil {
					return err
				}
				continue
			}
			if seen != nil {
				seen[termKey] = val
			}
		}
		if err := emit(i, append([]RankedDB(nil), val...), nil); err != nil {
			return err
		}
	}
	return nil
}
