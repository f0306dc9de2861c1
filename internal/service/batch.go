package service

import (
	"context"
	"fmt"

	"repro/internal/serving"
)

// Batch rank: the high-QPS serving entry point (DESIGN.md §10, §14). A batch
// request carries many queries that share one algorithm and one k; the
// service parses the algorithm once, acquires the compiled snapshot once,
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

// RankBatch ranks every query in the batch against the same compiled
// snapshot, returning one BatchItem per query in input order. Whole-batch
// failures — an unknown algorithm (ErrInvalid), an empty batch
// (ErrInvalid), a federation with no learned models (ErrNoModels) — are
// returned as an error; per-query problems land in the item's Error.
//
// RankBatch scores exactly like Rank (both funnel into rankSnapshot), so
// batched and sequential rankings are bit-identical, and coalesces through
// the same in-flight map.
func (s *Service) RankBatch(queries []string, algName string, k int) ([]BatchItem, error) {
	return serving.RankBatch(context.TODO(), tier{s}, queries, algName, k)
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
func (s *Service) RankBatchStream(queries []string, algName string, k int, emit func(i int, item BatchItem) error) error {
	reg := s.Metrics()
	defer reg.Timer("service_rank_batch_seconds")()

	if len(queries) == 0 {
		reg.Counter("service_select_errors_total").Inc()
		return fmt.Errorf("service: empty batch: %w", ErrInvalid)
	}
	alg, err := parseAlgorithm(algName)
	if err != nil {
		reg.Counter("service_select_errors_total").Inc()
		return err
	}
	snap := s.snapshot()
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
		if !scr.analyze(s.analyzer, q) {
			err := emit(i, BatchItem{Error: fmt.Sprintf("service: query has no index terms: %v", ErrInvalid)})
			if err != nil {
				return err
			}
			continue
		}
		termKey := string(scr.key)
		val, ok := seen[termKey]
		if ok {
			reg.Counter(`service_rank_coalesced_total{scope="batch"}`).Inc()
		} else {
			key := serving.Key{Query: termKey, Alg: algName, K: k, Epoch: snap.epoch}
			val, err = s.flights.Do(key, func() ([]RankedDB, error) {
				return s.rankSnapshot(snap, alg, scr, k), nil
			})
			if err != nil {
				// The flight this item joined failed (its leader panicked).
				// Deliver the error to this position — it asked for exactly
				// that computation — but keep it out of `seen`, so a later
				// duplicate retries fresh instead of inheriting the failure.
				if err := emit(i, BatchItem{Error: err.Error()}); err != nil {
					return err
				}
				continue
			}
			if seen != nil {
				seen[termKey] = val
			}
		}
		if err := emit(i, BatchItem{Ranked: append([]RankedDB(nil), val...)}); err != nil {
			return err
		}
	}
	reg.Counter("service_batch_ranks_total").Inc()
	reg.Counter("service_batch_queries_total").Add(int64(len(queries)))
	return nil
}
