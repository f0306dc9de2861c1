package selection

import (
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/corpus"
	"repro/internal/langmodel"
)

// cacmModels partitions the CACM corpus round-robin into nDBs databases and
// builds one full (actual, not sampled) language model per database, the
// way the experiment harness models a multi-database testbed.
func cacmModels(t testing.TB, nDBs int) []*langmodel.Model {
	t.Helper()
	docs := corpus.CACM().MustGenerate()
	an := analysis.Raw()
	models := make([]*langmodel.Model, nDBs)
	for i := range models {
		models[i] = langmodel.New()
	}
	var toks []string
	for i, d := range docs {
		toks = an.AppendTokens(toks[:0], d.Text)
		models[i%nDBs].AddDocument(toks)
	}
	return models
}

// TestCompiledGoldenCACM is the acceptance golden test: on the CACM corpus
// split across 20 databases, the compiled scorer must produce rankings
// byte-identical to the map-based selection.Rank — same database order,
// same float64 score bits — for CORI, GlOSS(0.0), and GlOSS(0.2), across
// queries mixing frequent terms, rare terms, and out-of-vocabulary terms.
func TestCompiledGoldenCACM(t *testing.T) {
	models := cacmModels(t, 20)
	c := Compile(models)

	queries := [][]string{
		{"the"},
		{"the", "of", "and"},
		{"algorithm"},                        // topical content term (if present)
		{"the", "zzz-not-in-any-vocabulary"}, // known + unknown mix
		{"zzz-not-in-any-vocabulary"},        // fully out of vocabulary
		{"the", "the", "of"},                 // repeated terms
		{"computing0001", "computing0002"},   // synthetic topic terms
	}
	// Add a handful of real vocabulary terms drawn from the first model so
	// the golden queries always include in-vocabulary content terms no
	// matter how the synthetic vocabulary spells them.
	picked := 0
	models[0].Range(func(term string, _ langmodel.TermStats) bool {
		queries = append(queries, []string{term})
		picked++
		return picked < 5
	})

	algorithms := []Algorithm{
		CORI{},
		Gloss{Estimator: GlossSum}, // GlOSS(0.0)
		Gloss{Estimator: GlossSum, Threshold: 0.2}, // GlOSS(0.2)
		Gloss{Estimator: GlossInd},
		Gloss{Estimator: GlossInd, Threshold: 0.2},
	}
	for _, alg := range algorithms {
		for qi, q := range queries {
			want := Rank(alg, q, models)
			got := c.Rank(alg, q)
			if len(got) != len(want) {
				t.Fatalf("%s query %d: %d ranked, want %d", alg.Name(), qi, len(got), len(want))
			}
			for i := range want {
				if got[i].DB != want[i].DB ||
					math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
					t.Fatalf("%s query %d (%v) diverges at rank %d:\ncompiled: %+v\nmap:      %+v",
						alg.Name(), qi, q, i, got[i], want[i])
				}
			}
		}
	}
}

// TestCompiledGoldenCACMStats sanity-checks the compiled layout against the
// models it was built from.
func TestCompiledGoldenCACMStats(t *testing.T) {
	models := cacmModels(t, 20)
	c := Compile(models)
	if c.NumDBs() != 20 {
		t.Fatalf("NumDBs = %d", c.NumDBs())
	}
	union := make(map[string]bool)
	postings := 0
	for _, m := range models {
		m.Range(func(term string, _ langmodel.TermStats) bool {
			union[term] = true
			postings++
			return true
		})
	}
	if c.VocabSize() != len(union) {
		t.Fatalf("VocabSize = %d, union = %d", c.VocabSize(), len(union))
	}
	if c.Postings() != postings {
		t.Fatalf("Postings = %d, want %d", c.Postings(), postings)
	}
	// Spot-check df round-trips through the CSR layout for a few terms.
	checked := 0
	models[3].Range(func(term string, st langmodel.TermStats) bool {
		id, ok := c.ID(term)
		if !ok {
			t.Fatalf("term %q missing from dictionary", term)
		}
		found := false
		dbs, dfs := c.row(id)
		for pos, db := range dbs {
			if db == 3 {
				if dfs[pos] != float64(st.DF) {
					t.Fatalf("term %q db 3: df %v, want %d", term, dfs[pos], st.DF)
				}
				found = true
			}
		}
		if !found {
			t.Fatalf("term %q has no posting for db 3", term)
		}
		checked++
		return checked < 50
	})
}
