package selection

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/randx"
)

// topKCutoffs are the k values every federation size is checked at: the
// small ones a selection service is asked for, both sides of the
// fullSortShare switch (n/4-1 is the largest heap, n/4 the smallest full
// sort), and the spellings of "everything" (n, past n, 0).
func topKCutoffs(n int) []int {
	return []int{1, 2, 10, n/4 - 1, n / 4, n / 2, n - 1, n, n + 5, 0}
}

// assertTopIsPrefix is the one property the selection routine has: for every
// k, RankTopInto(k) is RankInto()[:k], database for database and bit for bit.
func assertTopIsPrefix(t *testing.T, label string, c *Compiled, alg Algorithm, query []string) []Ranked {
	t.Helper()
	n := c.NumDBs()
	ids := c.AppendIDs(nil, query)
	scores := make([]float64, n)
	full, ok := c.RankInto(alg, ids, scores, nil)
	if !ok || len(full) != n {
		t.Fatalf("%s %s: full ranking has %d rows (ok=%v), want %d", label, alg.Name(), len(full), ok, n)
	}
	var out []Ranked
	for _, k := range topKCutoffs(n) {
		want := full
		if k > 0 && k < n {
			want = full[:k]
		}
		out, ok = c.RankTopInto(alg, ids, scores, out, k)
		if !ok || len(out) != len(want) {
			t.Fatalf("%s %s k=%d: %d rows (ok=%v), want %d", label, alg.Name(), k, len(out), ok, len(want))
		}
		for i := range want {
			if out[i].DB != want[i].DB || math.Float64bits(out[i].Score) != math.Float64bits(want[i].Score) {
				t.Fatalf("%s %s k=%d query %v: row %d is %+v, the full ranking has %+v",
					label, alg.Name(), k, query, i, out[i], want[i])
			}
		}
	}
	return full
}

func TestRankTopIsPrefixOfFullRanking(t *testing.T) {
	algs := []Algorithm{
		CORI{},
		Gloss{Estimator: GlossSum},
		Gloss{Estimator: GlossInd},
		// At this threshold most (term, database) pairs are zeroed, so most
		// databases tie at 0 and the cut falls inside the tie.
		Gloss{Estimator: GlossSum, Threshold: 0.2},
		Gloss{Estimator: GlossInd, Threshold: 0.2},
	}
	src := randx.New(0x70b1c)
	for _, n := range []int{1, 2, 10, 100, 512} {
		// randomModels mixes in empty and zero-document databases.
		models := randomModels(src, n, 40)
		compiled := Compile(models)

		// The same property over a base+delta snapshot: a third of the
		// databases re-sampled through Patch, some with terms new to the base.
		var patches []ModelPatch
		for _, idx := range src.Perm(n)[:(n+2)/3] {
			patches = append(patches, ModelPatch{DB: idx, Old: models[idx], New: randomModels(src, 1, 60)[0]})
		}
		patched, err := compiled.Patch(patches)
		if err != nil {
			t.Fatal(err)
		}

		queries := [][]string{{"t001"}, {"unknown-term", "t059"}}
		for q := 0; q < 6; q++ {
			query := make([]string, 1+src.Intn(5))
			for i := range query {
				query[i] = fmt.Sprintf("t%03d", src.Intn(60))
			}
			queries = append(queries, query)
		}
		for i, c := range []*Compiled{compiled, patched} {
			label := fmt.Sprintf("n=%d %s", n, [...]string{"compiled", "patched"}[i])
			// The case the tie rule exists for: no query term is known, every
			// CORI belief is exactly B, and the answer is databases 0..k-1 in
			// that order. A reject test that lets a tie in puts later
			// databases there instead.
			full := assertTopIsPrefix(t, label, c, CORI{}, []string{"no-such-term", "nor-this"})
			for i, r := range full {
				if r.DB != i || r.Score != 0.4 {
					t.Fatalf("%s: unknown-terms ranking row %d is %+v, want database %d at 0.4", label, i, r, i)
				}
			}
			for _, alg := range algs {
				for _, query := range queries {
					assertTopIsPrefix(t, label, c, alg, query)
				}
			}
		}
	}
}

// topByStableSort is the reference the selection is fuzzed against: a stable
// sort by score alone keeps equal scores in index order, which is the tie
// rule, without sharing a comparator with selectTop.
func topByStableSort(scores []float64, k int) []Ranked {
	all := make([]Ranked, len(scores))
	for i, s := range scores {
		all[i] = Ranked{DB: i, Score: s}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Score > all[j].Score })
	if k > 0 && k < len(all) {
		all = all[:k]
	}
	return all
}

// FuzzRankTop feeds selectTop arbitrary score vectors and cutoffs. The first
// byte is k (signed, so "all" and "past n" both occur), the second picks the
// vector's shape: eight bytes per score as raw float64 bits, or one byte per
// score folded to four levels so that nearly every comparison is a tie. NaN
// is mapped to 0: no scorer produces one, and no ordering holds over it.
func FuzzRankTop(f *testing.F) {
	ties := []byte{3, 1}
	for i := 0; i < 64; i++ {
		ties = append(ties, byte(i*7))
	}
	f.Add(ties)
	raw := []byte{2, 0}
	for _, s := range []float64{0.4, 0.4, 0.7, math.Inf(1), -1, 0, math.Copysign(0, -1), 0.4, 0.9, 0.1, 0.4, 0.5} {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(s))
	}
	f.Add(raw)
	f.Add([]byte{0, 1, 9})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k, rawBits := int(int8(data[0])), data[1]&1 == 0
		data = data[2:]
		var scores []float64
		if rawBits {
			for ; len(data) >= 8; data = data[8:] {
				s := math.Float64frombits(binary.LittleEndian.Uint64(data))
				if s != s {
					s = 0
				}
				scores = append(scores, s)
			}
		} else {
			for _, b := range data {
				scores = append(scores, float64(b%4))
			}
		}
		got := selectTop(nil, scores, k)
		want := topByStableSort(scores, k)
		if len(got) != len(want) {
			t.Fatalf("k=%d over %d scores: %d rows, want %d", k, len(scores), len(got), len(want))
		}
		for i := range want {
			if got[i].DB != want[i].DB || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
				t.Fatalf("k=%d over %v: row %d is %+v, sort-then-slice has %+v", k, scores, i, got[i], want[i])
			}
		}
	})
}
