package selection

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/langmodel"
	"repro/internal/randx"
)

// compiledAlgorithms are the algorithm family instances whose compiled
// scorers must be bit-identical to the map-based path: defaults, custom
// CORI constants, and both GlOSS estimators at both interesting thresholds.
func compiledAlgorithms() []Algorithm {
	return []Algorithm{
		CORI{},
		CORI{B: 0.6, K0: 100, K1: 200},
		Gloss{Estimator: GlossSum},
		Gloss{Estimator: GlossSum, Threshold: 0.2},
		Gloss{Estimator: GlossInd},
		Gloss{Estimator: GlossInd, Threshold: 0.2},
	}
}

// randomModels builds nDBs models over a shared pool of poolSize terms so
// that terms overlap across databases (cf > 1), with some empty databases
// and some zero-doc databases mixed in to exercise the edge paths.
func randomModels(src *randx.Source, nDBs, poolSize int) []*langmodel.Model {
	pool := make([]string, poolSize)
	for i := range pool {
		pool[i] = fmt.Sprintf("t%03d", i)
	}
	models := make([]*langmodel.Model, nDBs)
	for i := range models {
		m := langmodel.New()
		switch src.Intn(10) {
		case 0: // empty model, zero docs
			models[i] = m
			continue
		case 1: // terms but zero docs (sampled-but-unsized pathology)
		default:
			m.SetDocs(1 + src.Intn(500))
		}
		terms := 1 + src.Intn(poolSize)
		for _, j := range src.Perm(poolSize)[:terms] {
			df := 1 + src.Intn(200)
			m.AddTerm(pool[j], langmodel.TermStats{DF: df, CTF: int64(df + src.Intn(400))})
		}
		models[i] = m
	}
	return models
}

// TestCompiledMatchesMapScorers is the equivalence property test: across
// random model sets and random queries (including unknown and repeated
// terms), the compiled scorer must reproduce the map-based Scores float64
// for float64 — not approximately, bit for bit — and Rank order must match
// exactly for every compiled algorithm family.
func TestCompiledMatchesMapScorers(t *testing.T) {
	src := randx.New(0x5e1ec7)
	for trial := 0; trial < 40; trial++ {
		nDBs := 1 + src.Intn(30)
		models := randomModels(src, nDBs, 40)
		c := Compile(models)

		qlen := 1 + src.Intn(8)
		query := make([]string, qlen)
		for i := range query {
			if src.Intn(6) == 0 {
				query[i] = "unknown-term" // not in any model
			} else {
				query[i] = fmt.Sprintf("t%03d", src.Intn(40))
			}
		}

		ids := c.AppendIDs(nil, query)
		scores := make([]float64, nDBs)
		for _, alg := range compiledAlgorithms() {
			want := alg.Scores(query, models)
			if !c.ScoreInto(alg, ids, scores) {
				t.Fatalf("ScoreInto rejected %s", alg.Name())
			}
			for i := range want {
				if math.Float64bits(scores[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d %s: db %d compiled score %v != map score %v (query %v)",
						trial, alg.Name(), i, scores[i], want[i], query)
				}
			}
			if gotR, wantR := c.Rank(alg, query), Rank(alg, query, models); !reflect.DeepEqual(gotR, wantR) {
				t.Fatalf("trial %d %s: rankings diverge\ncompiled: %+v\nmap:      %+v",
					trial, alg.Name(), gotR, wantR)
			}
		}
	}
}

func TestCompiledEmptyInputs(t *testing.T) {
	empty := Compile(nil)
	if empty.NumDBs() != 0 || empty.VocabSize() != 0 {
		t.Fatalf("empty compile: %d dbs, %d terms", empty.NumDBs(), empty.VocabSize())
	}
	if got := empty.Rank(CORI{}, []string{"x"}); len(got) != 0 {
		t.Fatalf("empty compile ranked %v", got)
	}

	models := threeDBs()
	c := Compile(models)
	for _, alg := range compiledAlgorithms() {
		got := c.Rank(alg, nil)
		want := Rank(alg, nil, models)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s on empty query: %+v vs %+v", alg.Name(), got, want)
		}
	}
}

func TestCompiledRejectsUnknownAlgorithm(t *testing.T) {
	c := Compile(threeDBs())
	if ok := c.ScoreInto(fakeAlg{}, nil, make([]float64, 3)); ok {
		t.Fatal("ScoreInto accepted a non-compiled algorithm")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Rank did not panic on a non-compiled algorithm")
		}
	}()
	c.Rank(fakeAlg{}, []string{"x"})
}

type fakeAlg struct{}

func (fakeAlg) Name() string { return "fake" }
func (fakeAlg) Scores(query []string, models []*langmodel.Model) []float64 {
	return make([]float64, len(models))
}

func TestCompiledAppendIDs(t *testing.T) {
	c := Compile(threeDBs())
	ids := c.AppendIDs(nil, []string{"apple", "no-such-term", "stock"})
	if len(ids) != 3 || ids[1] != -1 || ids[0] < 0 || ids[2] < 0 {
		t.Fatalf("AppendIDs = %v", ids)
	}
	if id, ok := c.ID("apple"); !ok || id != ids[0] {
		t.Fatalf("ID(apple) = %d, %v; AppendIDs gave %d", id, ok, ids[0])
	}
	if _, ok := c.ID("no-such-term"); ok {
		t.Fatal("ID resolved a term no model contains")
	}
}

// TestCompiledRankIntoZeroAlloc pins the serving-path contract: with
// recycled buffers, resolving + scoring + ranking performs zero heap
// allocations for every compiled algorithm family, and refusing an
// algorithm that is not one allocates nothing either. The sets cover every
// statement on the path: a patched set (a row overridden in the delta, a
// term the patch appended to the dictionary, a row that lost its last
// posting), an empty query, databases that hold nothing, and no databases
// at all.
func TestCompiledRankIntoZeroAlloc(t *testing.T) {
	src := randx.New(0xa110c)
	models := randomModels(src, 50, 60)
	random := Compile(models)
	// The last database alone holds pie; its patch takes pie away, moves
	// t001 and brings kiwi, a term new to the set. The patch is small
	// against the table, so it stays a delta and does not fold.
	models = append(models, db(100, map[string][2]int64{"pie": {30, 50}, "t001": {5, 9}}))
	patched, err := Compile(models).Patch([]ModelPatch{
		{DB: 50, Old: models[50], New: db(100, map[string][2]int64{"t001": {6, 9}, "kiwi": {10, 12}})},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		name  string
		c     *Compiled
		query []string
		k     int // RankTopInto's cut
	}{
		{"random", random, []string{"t001", "t007", "t013", "unknown-term"}, 10},
		{"patched", patched, []string{"t001", "pie", "kiwi", "t007", "unknown-term"}, 2},
		{"empty query", random, nil, 10},
		{"empty databases", Compile([]*langmodel.Model{langmodel.New(), langmodel.New()}), []string{"x"}, 1},
		{"no databases", Compile(nil), []string{"x"}, 1},
	} {
		ids := make([]int32, 0, 8)
		scores := make([]float64, set.c.NumDBs())
		out := make([]Ranked, 0, set.c.NumDBs())
		for _, alg := range append(compiledAlgorithms(), fakeAlg{}) {
			_, fake := alg.(fakeAlg)
			var ok bool
			allocs := testing.AllocsPerRun(100, func() {
				ids = set.c.AppendIDs(ids[:0], set.query)
				out, ok = set.c.RankInto(alg, ids, scores, out[:0])
			})
			if allocs != 0 || ok == fake {
				t.Errorf("%s, %s: RankInto allocated %.1f times per run and said %v, want 0 and %v", set.name, alg.Name(), allocs, ok, !fake)
			}
			if fake {
				continue
			}
			if want := set.c.Rank(alg, set.query); !reflect.DeepEqual(out, want) {
				t.Errorf("%s, %s: RankInto = %v, Rank = %v", set.name, alg.Name(), out, want)
			}
			// The serving call: the top k, on the heap side of selectTop
			// where k is small against the federation.
			allocs = testing.AllocsPerRun(100, func() {
				ids = set.c.AppendIDs(ids[:0], set.query)
				out, _ = set.c.RankTopInto(alg, ids, scores, out, set.k)
			})
			if want := min(set.k, set.c.NumDBs()); allocs != 0 || len(out) != want {
				t.Errorf("%s, %s: RankTopInto(%d) allocated %.1f times per run for %d rows, want 0 for %d", set.name, alg.Name(), set.k, allocs, len(out), want)
			}
		}
	}
	// A ranking holds each database once; only a direct call can ask the
	// order about a row and itself.
	row := Ranked{DB: 3, Score: 0.5}
	if allocs := testing.AllocsPerRun(100, func() {
		if compareRanked(row, row) != 0 {
			t.Fatal("a row does not tie with itself")
		}
	}); allocs != 0 {
		t.Errorf("compareRanked: %.1f allocations, want 0", allocs)
	}
}

func TestGlossThresholdNames(t *testing.T) {
	if got := (Gloss{Estimator: GlossSum, Threshold: 0.2}).Name(); got != "gloss-sum@0.2" {
		t.Errorf("Name = %q", got)
	}
	if got := (Gloss{Estimator: GlossInd, Threshold: 0.05}).Name(); got != "gloss-ind@0.05" {
		t.Errorf("Name = %q", got)
	}
}

func TestGlossThresholdZeroesWeakEvidence(t *testing.T) {
	// db 0: df 80/100 = 0.8 survives l = 0.2; db 1: df 5/100 = 0.05 zeroed.
	models := threeDBs()
	scores := Gloss{Estimator: GlossSum, Threshold: 0.2}.Scores([]string{"apple"}, models)
	if scores[0] != 0.8 {
		t.Errorf("db 0 score = %v, want 0.8", scores[0])
	}
	if scores[1] != 0 {
		t.Errorf("db 1 score = %v, want 0 (below threshold)", scores[1])
	}
}
