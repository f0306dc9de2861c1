package cluster

// Tests for the batched scatter-gather path: bit-identical fusion against
// the single-query path, per-item error propagation and cold-federation
// handling. The front's HTTP rank surface is the serving core's, pinned
// for every tier by internal/serving's contract test.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/experiments"
	"repro/internal/loadgen"
	"repro/internal/netsearch"
	"repro/internal/selection"
	"repro/internal/service"
	"repro/internal/serving"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// sampledCluster builds a front over nShards real shards, registers a
// small federation by ring placement, and samples every database — the
// full wire stack with learned models. The front and its shards share
// one registry, so a test reads either tier's instruments from f.reg.
func sampledCluster(t *testing.T, nShards int) (*Front, []*experiments.FederationDB) {
	t.Helper()
	dbs, err := experiments.Federation(4, 150, 31)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	shards := make([]*service.Service, nShards)
	var addrs [][]string
	for i := range shards {
		shards[i] = service.New(analysis.Database(), nil)
		shards[i].SetMetrics(reg)
		srv, err := ServeShard(shards[i], "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, []string{srv.Addr()})
	}
	f := newTestFront(t, addrs, reg)
	sample := service.SampleOptions{Docs: 40, Seed: 7}
	for _, db := range dbs {
		svc := shards[f.Ring().Owner(db.Name)]
		if err := svc.RegisterLocal(db.Name, db.Index); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Sample(db.Name, sample); err != nil {
			t.Fatal(err)
		}
	}
	return f, dbs
}

// TestFrontBatchMatchesSequential: a query ranked inside a batch must
// fuse to the bit the same as the query ranked alone — same partials,
// same uniform weights, same tie-break.
func TestFrontBatchMatchesSequential(t *testing.T) {
	f, dbs := sampledCluster(t, 2)
	terms := experiments.TopicalTerms(dbs[0], dbs, 4)
	queries := []string{
		terms[0] + " " + terms[1],
		terms[2],
		terms[0] + " " + terms[1], // repeats must not perturb merge-scratch reuse
		terms[3] + " " + terms[0],
	}
	for _, alg := range []string{"cori", "gloss-sum"} {
		batch, err := serving.RankBatch(context.Background(), tier{f}, queries, alg, 3)
		if err != nil {
			t.Fatalf("RankBatch(%s): %v", alg, err)
		}
		if len(batch) != len(queries) {
			t.Fatalf("got %d items for %d queries", len(batch), len(queries))
		}
		for i, q := range queries {
			want, err := f.Rank(q, alg, 3, "")
			if err != nil {
				t.Fatalf("Rank(%q, %s): %v", q, alg, err)
			}
			got := batch[i]
			if got.Error != "" {
				t.Fatalf("item %d unexpected error %q", i, got.Error)
			}
			if len(got.Ranked) != len(want) {
				t.Fatalf("item %d: %d rows vs %d sequential", i, len(got.Ranked), len(want))
			}
			for j := range want {
				if got.Ranked[j].Name != want[j].Name ||
					math.Float64bits(got.Ranked[j].Score) != math.Float64bits(want[j].Score) {
					t.Fatalf("item %d row %d: batch %+v != sequential %+v", i, j, got.Ranked[j], want[j])
				}
			}
		}
	}
}

// TestFrontTopKIsPrefix: each shard selects its k with the scorer's
// bounded selection, so through a 2-shard front the answer for k must be the
// first k rows of the answer for "all", and must equal the per-partition
// reference: each shard's own top k, asked directly, fused with uniform
// weights. (Sharded CORI is partition-relative, so the single-process
// ranking is not the reference here.) 40 warm synthetic models, 20 on each
// shard, put k = 1..4 on the heap side of the selection.
func TestFrontTopKIsPrefix(t *testing.T) {
	const nDBs = 40
	models, words := loadgen.SyntheticModels(nDBs, 0xbe7c)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]*service.Service, 2)
	var addrs [][]string
	for i := range shards {
		shards[i] = service.New(analysis.Database(), st)
		srv, err := ServeShard(shards[i], "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, []string{srv.Addr()})
	}
	for i, m := range models {
		name := fmt.Sprintf("db-%03d", i)
		if err := st.Put(name, m); err != nil {
			t.Fatal(err)
		}
		// Placed by hand, not by ring: a rank scatters to every slot, and the
		// ring sends all of these look-alike names to one of them.
		if err := shards[i%2].Register(name, "prefix.invalid:0"); err != nil {
			t.Fatal(err)
		}
	}
	f := newTestFront(t, addrs, telemetry.NewRegistry())
	queries := []string{
		words[3] + " " + words[17] + " " + words[3999],
		"qqunknown zzunknown", // every database ties: the cut falls inside the tie on both shards
		words[250],
	}
	same := func(label string, got, want []netsearch.RankedDB) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
		}
		for j := range want {
			if got[j].Name != want[j].Name || math.Float64bits(got[j].Score) != math.Float64bits(want[j].Score) {
				t.Fatalf("%s row %d: %+v, want %+v", label, j, got[j], want[j])
			}
		}
	}
	for _, alg := range []string{"cori", "gloss-sum"} {
		for _, q := range queries {
			full, err := f.Rank(q, alg, 0, "")
			if err != nil || len(full) != nDBs {
				t.Fatalf("Rank(%q, %s, 0): %d rows, %v", q, alg, len(full), err)
			}
			for _, k := range []int{1, 2, 4, 5, 10, nDBs} {
				label := fmt.Sprintf("%s k=%d %q", alg, k, q)
				got, err := f.Rank(q, alg, k, "")
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				same(label+" vs full", got, full[:k])

				partials := make([][]netsearch.RankedDB, len(shards))
				lists := make([][]selection.DocScore, len(shards))
				for s, svc := range shards {
					if partials[s], err = svc.Rank(q, alg, k); err != nil {
						t.Fatalf("%s shard %d: %v", label, s, err)
					}
					for j, r := range partials[s] {
						lists[s] = append(lists[s], selection.DocScore{Doc: j, Score: r.Score})
					}
				}
				fused, err := selection.MergeWeighted(lists, []float64{1, 1}, k)
				if err != nil {
					t.Fatal(err)
				}
				ref := make([]netsearch.RankedDB, len(fused))
				for j, h := range fused {
					ref[j] = netsearch.RankedDB{Name: partials[h.DB][h.Doc].Name, Score: h.Score}
				}
				same(label+" vs per-partition reference", got, ref)
			}
		}
	}
}

func TestFrontBatchPerItemErrors(t *testing.T) {
	f, dbs := sampledCluster(t, 2)
	terms := experiments.TopicalTerms(dbs[0], dbs, 2)
	batch, err := serving.RankBatch(context.Background(), tier{f}, []string{terms[0], "the and of"}, "cori", 2)
	if err != nil {
		t.Fatal(err)
	}
	if batch[0].Error != "" || len(batch[0].Ranked) == 0 {
		t.Errorf("item 0 should rank: %+v", batch[0])
	}
	if batch[1].Error == "" || batch[1].Ranked != nil {
		t.Errorf("stopword-only query should fail per-item: %+v", batch[1])
	}
}

func TestFrontBatchColdFederationAndBadAlg(t *testing.T) {
	s0, s1 := &stubShard{}, &stubShard{}
	f := newTestFront(t, [][]string{{serveStub(t, s0)}, {serveStub(t, s1)}}, telemetry.NewRegistry())
	if _, err := serving.RankBatch(context.Background(), tier{f}, []string{"a", "b"}, "cori", 5); !errors.Is(err, service.ErrNoModels) {
		t.Errorf("cold-federation batch error = %v, want service.ErrNoModels", err)
	}

	// A real shard refuses a bogus algorithm with a marked EINVAL, which
	// must classify back to ErrInvalid without burning failovers.
	fr, _ := sampledCluster(t, 1)
	if _, err := serving.RankBatch(context.Background(), tier{fr}, []string{"data"}, "bogus-alg", 0); !errors.Is(err, service.ErrInvalid) {
		t.Errorf("bad-algorithm batch error = %v, want service.ErrInvalid", err)
	}
	if h := fr.Health(); h[0].ConsecutiveFailures != 0 {
		t.Errorf("client mistake booked as replica failure: %+v", h[0])
	}
}
