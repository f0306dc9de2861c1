package cluster

// The scatter-fuse core (DESIGN.md §10). Every rank the front answers —
// one query, a buffered batch, a streamed batch — is one pass through
// scatter: open one "rankstream" exchange per slot, let a reader goroutine
// buffer each slot's items as frames arrive, and fuse inline in input
// order. Query i's fused ranking is emitted as soon as every slot has
// delivered *its* item i — queries i+1… may still be computing anywhere.
// Shards emit in input order too, so the gather never waits on an item it
// will not need next, and time-to-first-result is one query's scatter
// latency instead of the batch's.
//
// A query repeated in the batch travels once per position: each shard's
// service ranks it once (its rankEach coalesces repeats on the analyzed
// terms), and every position fuses a ranking of its own.
//
// The cold-federation rule. A query for which no slot holds a model fuses
// to nothing; scatter marks that item Cold. What a cold item means to the
// client depends on the form, because only the buffered forms see every
// item before answering: a single rank and a buffered batch whose items
// are all cold fail whole with ErrNoModels (503), while a stream — which
// cannot wait to see every item before sending the first — reports it per
// item. Invalid-argument refusals fail every form whole before the first
// emit, because every slot refuses the same way and slot errors surface on
// the first wait.

import (
	"fmt"

	"repro/internal/netsearch"
	"repro/internal/parallel"
	"repro/internal/selection"
	"repro/internal/serving"
)

// slotItem is one frame of a slot's rank stream on its way to the fuser.
type slotItem struct {
	index int
	item  netsearch.RankedBatch
}

// slotStream carries one slot's arriving rank stream to the inline fuser.
// items is buffered for the whole batch: a batch is bounded by
// serving.MaxBatchQueries, so buffering it costs less than stalling the
// shard's stream behind the slowest sibling slot. The reader closes items
// when its RPC is over, having first set err to the scatter failure (if
// any) that waiters for undelivered items will see.
type slotStream struct {
	items chan slotItem
	err   error
}

// wait blocks until the slot's item for query i arrives. Shards emit in
// input order, so the only indexes that can precede i are ones already
// fused: a transport retry replaying the stream, whose first delivery
// stands (replicas serve identical models, so the replay is bit-identical
// anyway). Items delivered before a stream failed are still served —
// failure only poisons what it actually prevented.
func (ss *slotStream) wait(i int) (netsearch.RankedBatch, error) {
	for si := range ss.items {
		switch {
		case si.index == i:
			return si.item, nil
		case si.index > i:
			return netsearch.RankedBatch{}, fmt.Errorf("cluster: stream item %d arrived before item %d", si.index, i)
		}
	}
	if ss.err != nil {
		return netsearch.RankedBatch{}, ss.err
	}
	return netsearch.RankedBatch{}, fmt.Errorf("cluster: slot stream ended before item %d", i)
}

// RankBatchStream ranks a batch through the scatter-fuse core: emit
// receives each query's fused ranking, in input order, as soon as every
// slot has delivered its partial for that query. A non-nil error from emit
// cancels the scatter (every slot's stream is torn down without failover
// or health penalty) and is returned as-is. Whole-batch refusals surface
// before the first emit; a cold item's Error carries ErrNoModels' text.
func (f *Front) RankBatchStream(queries []string, alg string, k int, trace string, emit func(i int, item netsearch.RankedBatch) error) error {
	defer f.reg.Since("cluster_scatter_stream_seconds", f.reg.Now())
	return f.scatter(queries, alg, k, trace, emit)
}

// scatter is the one scatter-fuse loop. Every slot is weighted equally —
// slots partition the database set, so partial scores are already on the
// algorithm's own scale and pass through selection.MergeWeightedInto
// unscaled. Ties break by (slot, partial rank): deterministic for a fixed
// topology, and invariant under failover because replicas of a slot serve
// identical database sets and deterministic models. A batch travels to a
// slot as one exchange, so failover retries it as a unit and never splits
// it across replicas with divergent model states.
func (f *Front) scatter(queries []string, alg string, k int, trace string, emit func(i int, item serving.Item) error) error {
	// quit, closed however this returns, aborts every still-running RPC as
	// its next frames arrive; the readers are then joined — no goroutine may
	// outlive the request that spawned it.
	quit := make(chan struct{})
	streams := make([]*slotStream, len(f.reps))
	readers := parallel.NewGroup(len(f.reps))
	for slot := range f.reps {
		ss := &slotStream{items: make(chan slotItem, len(queries))}
		streams[slot] = ss
		readers.Go(func() error {
			// The scatter outcome travels to the fuser through the stream,
			// not the group: wait() hands it to exactly the items it hurt.
			ss.err = f.callSlot(slot, func(c *netsearch.Client) error {
				return c.RankDBsStream(queries, alg, k, trace, func(i int, item netsearch.RankedBatch) error {
					select {
					case ss.items <- slotItem{i, item}:
						return nil
					case <-quit:
						return netsearch.ErrStreamCanceled
					}
				})
			})
			close(ss.items)
			return nil
		})
	}
	defer func() {
		close(quit)
		// Wait only joins: every reader's error already reached slotStream.err.
		readers.Wait()
	}()

	// Fusion scratch, recycled across queries.
	lists := make([][]selection.DocScore, len(streams))
	weights := make([]float64, len(streams))
	for i := range weights {
		weights[i] = 1
	}
	var fused []selection.MergedHit
	partials := make([]netsearch.RankedBatch, len(streams))
	for i := range queries {
		var item serving.Item
		total := 0
		for slot, ss := range streams {
			it, err := ss.wait(i)
			if err != nil {
				f.reg.Counter("cluster_scatter_errors_total").Inc()
				return err
			}
			partials[slot] = it
			if it.Error != "" {
				// Deterministic per-query refusal: every slot tokenizes
				// the same way, so any slot's report stands for all.
				item.Error = it.Error
			}
			list := lists[slot][:0]
			for j, r := range it.Ranked {
				list = append(list, selection.DocScore{Doc: j, Score: r.Score})
			}
			lists[slot] = list
			total += len(it.Ranked)
		}
		switch {
		case item.Error != "":
		case total == 0:
			item = serving.Item{Cold: true, Error: fmt.Sprintf("cluster: %v", serving.ErrNoModels)}
		default:
			var err error
			fused, err = selection.MergeWeightedInto(fused[:0], lists, weights, k)
			if err != nil {
				// Unreachable by construction (lists and weights are
				// parallel); surfaced rather than swallowed all the same.
				return fmt.Errorf("cluster: fuse: %w", err)
			}
			item.Ranked = make([]netsearch.RankedDB, len(fused))
			for j, h := range fused {
				item.Ranked[j] = netsearch.RankedDB{Name: partials[h.DB].Ranked[h.Doc].Name, Score: h.Score}
			}
		}
		if err := emit(i, item); err != nil {
			return err
		}
	}
	return nil
}
