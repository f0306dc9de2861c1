package selection

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"
)

// coriScoresDigest is the FNV-64a digest of the Float64bits of every CORI
// score in TestCORIScoresPinned. It changes only when CORI's arithmetic
// does; a change that must keep rankings bit-identical must keep it.
const coriScoresDigest = 0x762f0394ae77b227

// TestCORIScoresPinned pins CORI's scores themselves, not just the
// agreement of the map and compiled scorers: both paths hash to one
// recorded digest, so a drift they share (a different avg_cw or I
// component computed the same way on both sides) fails here even though
// TestCompiledGoldenCACM would still pass.
func TestCORIScoresPinned(t *testing.T) {
	models := cacmModels(t, 20)
	c := Compile(models)

	queries := [][]string{
		{"the"},
		{"the", "of", "and"},
		{"algorithm"},
		{"the", "zzz-not-in-any-vocabulary"},
		{"zzz-not-in-any-vocabulary"},
		{"the", "the", "of"},
		{"computing0001", "computing0002"},
	}
	// Content terms drawn by position from the models' own term order, which
	// is a pure function of the generated corpus: one or two terms a query,
	// rare and frequent alike.
	for k := 0; len(queries) < 203; k++ {
		a, b := models[k%20], models[(k+7)%20]
		q := []string{a.TermAt(k * 37 % a.VocabSize())}
		if k%3 != 0 {
			q = append(q, b.TermAt(k*101%b.VocabSize()))
		}
		queries = append(queries, q)
	}

	mapHash, compiledHash := fnv.New64a(), fnv.New64a()
	add := func(h hash.Hash64, scores []float64) {
		var buf [8]byte
		for _, s := range scores {
			h.Write(binary.LittleEndian.AppendUint64(buf[:0], math.Float64bits(s)))
		}
	}
	scores := make([]float64, c.NumDBs())
	var ids []int32
	for _, q := range queries {
		add(mapHash, CORI{}.Scores(q, models))
		ids = c.AppendIDs(ids[:0], q)
		c.ScoreInto(CORI{}, ids, scores)
		add(compiledHash, scores)
	}
	if got := mapHash.Sum64(); got != coriScoresDigest {
		t.Errorf("CORI.Scores digest %#x, want %#x", got, coriScoresDigest)
	}
	if got := compiledHash.Sum64(); got != coriScoresDigest {
		t.Errorf("Compiled.ScoreInto digest %#x, want %#x", got, coriScoresDigest)
	}
}
