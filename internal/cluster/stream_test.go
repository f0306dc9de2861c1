package cluster

// Tests for the streaming scatter-gather path (DESIGN.md §10): the fused
// stream must be bit-identical to the buffered batch (which is itself
// pinned to the single-query path), client aborts must tear the scatter
// down without failover or health penalties, and a failed scatter's flight
// must fail its followers and nobody later.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/netsearch"
	"repro/internal/service"
	"repro/internal/serving"
	"repro/internal/telemetry"
)

// collectStream runs RankBatchStream and records every emitted item with
// its index, verifying in-order delivery.
func collectStream(t *testing.T, f *Front, queries []string, alg string, k int) []netsearch.RankedBatch {
	t.Helper()
	items := make([]netsearch.RankedBatch, 0, len(queries))
	err := f.RankBatchStream(queries, alg, k, "", func(i int, item netsearch.RankedBatch) error {
		if i != len(items) {
			return fmt.Errorf("item %d arrived out of order (want %d)", i, len(items))
		}
		items = append(items, item)
		return nil
	})
	if err != nil {
		t.Fatalf("RankBatchStream: %v", err)
	}
	return items
}

// TestFrontStreamMatchesBatch: streamed fusion over the real wire must be
// bit-identical to the buffered RankBatch — same partials, same weights,
// same tie-break — with duplicate queries collapsing before the scatter.
func TestFrontStreamMatchesBatch(t *testing.T) {
	f, dbs := sampledCluster(t, 2)
	terms := experiments.TopicalTerms(dbs[0], dbs, 4)
	queries := []string{
		terms[0] + " " + terms[1],
		terms[2],
		terms[0] + " " + terms[1], // duplicate: must fuse once, emit twice
		"the and of",              // per-item error must stream too
		terms[3],
	}
	coalesced := f.reg.Counter(`cluster_rank_coalesced_total{scope="batch"}`)
	before := coalesced.Value()
	for _, alg := range []string{"cori", "gloss-sum"} {
		got := collectStream(t, f, queries, alg, 3)
		want, err := serving.RankBatch(context.Background(), tier{f}, queries, alg, 3)
		if err != nil {
			t.Fatalf("RankBatch(%s): %v", alg, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d streamed items, %d buffered", alg, len(got), len(want))
		}
		for i := range want {
			if got[i].Error != want[i].Error {
				t.Fatalf("%s item %d: streamed error %q, buffered %q", alg, i, got[i].Error, want[i].Error)
			}
			if len(got[i].Ranked) != len(want[i].Ranked) {
				t.Fatalf("%s item %d: %d rows vs %d buffered", alg, i, len(got[i].Ranked), len(want[i].Ranked))
			}
			for j := range want[i].Ranked {
				if got[i].Ranked[j].Name != want[i].Ranked[j].Name ||
					math.Float64bits(got[i].Ranked[j].Score) != math.Float64bits(want[i].Ranked[j].Score) {
					t.Fatalf("%s item %d row %d: streamed %+v != buffered %+v",
						alg, i, j, got[i].Ranked[j], want[i].Ranked[j])
				}
			}
		}
	}
	// One duplicate per run, two algorithms, stream + buffered each: 4.
	if got := coalesced.Value() - before; got != 4 {
		t.Errorf(`scope="batch" coalesce counter grew %d, want 4`, got)
	}
}

// TestFrontPositionsOwnTheirSlices: duplicates fuse once, yet every position
// owns its ranking — the last user of a fused slice takes it, the earlier
// ones get copies. Each emitted slice is scribbled over the moment it
// arrives; every later position, duplicate or not, must still read the
// ranking a query ranked alone gets.
func TestFrontPositionsOwnTheirSlices(t *testing.T) {
	f, dbs := sampledCluster(t, 2)
	terms := experiments.TopicalTerms(dbs[0], dbs, 4)
	a, b, c := terms[0]+" "+terms[1], terms[2], terms[3]
	queries := []string{a, b, a, c, a, b}
	want := map[string][]netsearch.RankedDB{}
	for _, q := range []string{a, b, c} {
		ranked, err := f.Rank(q, "cori", 3, "")
		if err != nil || len(ranked) == 0 {
			t.Fatalf("Rank(%q): %+v, %v", q, ranked, err)
		}
		want[q] = ranked
	}
	check := func(what string, i int, got []netsearch.RankedDB) {
		t.Helper()
		ref := want[queries[i]]
		if len(got) != len(ref) {
			t.Fatalf("%s position %d: %d rows, want %d", what, i, len(got), len(ref))
		}
		for j := range ref {
			if got[j].Name != ref[j].Name || math.Float64bits(got[j].Score) != math.Float64bits(ref[j].Score) {
				t.Fatalf("%s position %d row %d = %+v, want %+v: a neighbour's slice aliases it", what, i, j, got[j], ref[j])
			}
		}
	}
	scribble := func(rows []netsearch.RankedDB) {
		for j := range rows {
			rows[j] = netsearch.RankedDB{Name: "scribbled", Score: -1}
		}
	}
	err := f.RankBatchStream(queries, "cori", 3, "", func(i int, item netsearch.RankedBatch) error {
		check("streamed", i, item.Ranked)
		scribble(item.Ranked)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	items, err := serving.RankBatch(context.Background(), tier{f}, queries, "cori", 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range items {
		check("buffered", i, items[i].Ranked)
		scribble(items[i].Ranked)
	}
}

// TestFrontStreamColdFederation: the documented divergence — a federation
// with no models streams per-item errors (each wrapping ErrNoModels' text)
// instead of the buffered path's whole-batch refusal.
func TestFrontStreamColdFederation(t *testing.T) {
	s0, s1 := &stubShard{}, &stubShard{}
	f := newTestFront(t, [][]string{{serveStub(t, s0)}, {serveStub(t, s1)}}, telemetry.NewRegistry())

	items := collectStream(t, f, []string{"a", "b"}, "cori", 5)
	for i, it := range items {
		if it.Error == "" || !strings.Contains(it.Error, service.ErrNoModels.Error()) {
			t.Errorf("cold item %d = %+v, want a no-models error", i, it)
		}
	}
}

// TestFrontStreamBadAlgFailsWholeBatch: an invalid-argument refusal
// surfaces before the first emit, classifies to ErrInvalid, and burns no
// replica health.
func TestFrontStreamBadAlgFailsWholeBatch(t *testing.T) {
	f, _ := sampledCluster(t, 1)
	emitted := 0
	err := f.RankBatchStream([]string{"data", "more data"}, "bogus-alg", 0, "", func(int, netsearch.RankedBatch) error {
		emitted++
		return nil
	})
	if !errors.Is(err, service.ErrInvalid) {
		t.Errorf("bad-algorithm stream error = %v, want service.ErrInvalid", err)
	}
	if emitted != 0 {
		t.Errorf("%d items emitted before the whole-batch refusal", emitted)
	}
	if h := f.Health(); h[0].ConsecutiveFailures != 0 {
		t.Errorf("client mistake booked as replica failure: %+v", h[0])
	}
}

// TestFrontStreamEmitAbortNoFailover: a consumer abort (the HTTP layer's
// client hung up) cancels the scatter mid-stream — the abort error comes
// back as-is and the torn-down RPCs cost the replicas no health.
func TestFrontStreamEmitAbortNoFailover(t *testing.T) {
	f, dbs := sampledCluster(t, 2)
	terms := experiments.TopicalTerms(dbs[0], dbs, 3)
	queries := []string{terms[0], terms[1], terms[2]}
	abort := fmt.Errorf("%w: client hung up", netsearch.ErrStreamCanceled)
	err := f.RankBatchStream(queries, "cori", 2, "", func(i int, item netsearch.RankedBatch) error {
		if i == 0 {
			return abort
		}
		return nil
	})
	if !errors.Is(err, netsearch.ErrStreamCanceled) {
		t.Fatalf("aborted stream error = %v, want ErrStreamCanceled", err)
	}
	for _, h := range f.Health() {
		if h.ConsecutiveFailures != 0 {
			t.Errorf("caller abort penalized replica health: %+v", h)
		}
	}
	// The fabric must still serve: the teardown may not have wedged a
	// connection or marked a replica down.
	if _, err := f.Rank(queries[0], "cori", 2, ""); err != nil {
		t.Fatalf("rank after aborted stream: %v", err)
	}
}

// TestFrontCacheFlightErrors: a failed scatter reaches only the followers
// already waiting on it, never a later caller.
func TestFrontCacheFlightErrors(t *testing.T) {
	c := serving.NewFlights("cluster", func() *telemetry.Registry { return nil })
	key := serving.Key{Query: "q", Alg: "cori", K: 2}
	fl, leader := c.Join(key)
	if !leader {
		t.Fatal("first join not leader")
	}
	follower, leader := c.Join(key)
	if leader {
		t.Fatal("second join led a flight that already has a leader")
	}
	c.Fulfill(key, fl, nil, errors.New("scatter failed"))
	if _, err := follower.Wait(); err == nil || err.Error() != "scatter failed" {
		t.Fatalf("follower got %v, want the scatter's error", err)
	}
	if _, leader := c.Join(key); !leader {
		t.Fatal("failed flight stayed joinable")
	}
}
