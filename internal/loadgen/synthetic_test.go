package loadgen

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"testing"

	"repro/internal/langmodel"
)

// TestSyntheticModelsFingerprint pins the federation every BENCHMARK.json
// workload is built from (benchmark/bench: FederationSeed 0xbe7c). If this
// fails, SyntheticModels drifted and every committed benchmark number,
// allocs_per_query and topk_agree included, stopped being comparable with
// its parent's: restore the function rather than the constants.
func TestSyntheticModelsFingerprint(t *testing.T) {
	models, words := SyntheticModels(3, 0xbe7c)
	type fingerprint struct {
		docs, vocab int
		hash        uint64
	}
	want := []fingerprint{
		{5407, 1042, 0x62f70d3722066621},
		{4596, 815, 0xbbe9368d923908ea},
		{2152, 1160, 0x866d37679a2eda7c},
	}
	if len(models) != len(want) {
		t.Fatalf("got %d models, want %d", len(models), len(want))
	}
	for i, m := range models {
		if got := (fingerprint{m.Docs(), m.VocabSize(), modelHash(m)}); got != want[i] {
			t.Errorf("model %d: docs=%d vocab=%d hash=%#x, want docs=%d vocab=%d hash=%#x",
				i, got.docs, got.vocab, got.hash, want[i].docs, want[i].vocab, want[i].hash)
		}
	}
	h := fnv.New64a()
	h.Write([]byte(strings.Join(words, "\n")))
	if got, exp := h.Sum64(), uint64(0xe426f6dcc37cd6cd); len(words) != 4000 || got != exp {
		t.Errorf("word pool: %d words, hash %#016x, want 4000 words, hash %#016x", len(words), got, exp)
	}
}

// modelHash is FNV-1a over the model's "term df ctf" lines in term order.
func modelHash(m *langmodel.Model) uint64 {
	lines := make([]string, 0, m.VocabSize())
	m.Range(func(term string, st langmodel.TermStats) bool {
		lines = append(lines, fmt.Sprintf("%s %d %d\n", term, st.DF, st.CTF))
		return true
	})
	sort.Strings(lines)
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
	}
	return h.Sum64()
}
