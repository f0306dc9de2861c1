package index

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/analysis"
	"repro/internal/corpus"
	"repro/internal/langmodel"
)

func doc(id int, text string) corpus.Document {
	return corpus.Document{ID: id, Text: text}
}

func buildTest(texts ...string) *Index {
	docs := make([]corpus.Document, len(texts))
	for i, t := range texts {
		docs[i] = doc(i, t)
	}
	return Build(docs, analysis.Raw(), InQuery)
}

func TestBuildAndStats(t *testing.T) {
	ix := buildTest("apple apple bear", "apple cat")
	if ix.NumDocs() != 2 {
		t.Errorf("NumDocs = %d", ix.NumDocs())
	}
	if ix.VocabSize() != 3 {
		t.Errorf("VocabSize = %d", ix.VocabSize())
	}
	if ix.TotalTerms() != 5 {
		t.Errorf("TotalTerms = %d", ix.TotalTerms())
	}
	if ix.DF("apple") != 2 || ix.CTF("apple") != 3 {
		t.Errorf("apple df=%d ctf=%d", ix.DF("apple"), ix.CTF("apple"))
	}
	if ix.DF("zzz") != 0 {
		t.Errorf("df of unknown term = %d", ix.DF("zzz"))
	}
}

func TestSearchRanksByRelevance(t *testing.T) {
	// Doc 0 mentions apple three times in four tokens; doc 1 once in four.
	ix := buildTest("apple apple apple pie", "apple banana cherry date", "no fruit here at all")
	hits, err := ix.SearchScored("apple", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("got %d hits, want 2", len(hits))
	}
	if hits[0].Doc != 0 || hits[1].Doc != 1 {
		t.Errorf("ranking wrong: %+v", hits)
	}
	if hits[0].Score <= hits[1].Score {
		t.Errorf("scores not descending: %+v", hits)
	}
	ids, err := ix.Search("apple", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != hits[0].Doc || ids[1] != hits[1].Doc {
		t.Errorf("Search ids %v disagree with SearchScored %+v", ids, hits)
	}
}

func TestSearchTopN(t *testing.T) {
	ix := buildTest("x a", "x b", "x c", "x d", "x e")
	hits, err := ix.Search("x", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 3 {
		t.Errorf("got %d hits, want 3", len(hits))
	}
}

func TestSearchUnknownTermFails(t *testing.T) {
	// The failed-query path that Table 3 counts.
	ix := buildTest("alpha beta")
	hits, err := ix.Search("nonexistent", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 {
		t.Errorf("unknown term returned %d hits", len(hits))
	}
}

func TestSearchEmptyAndZeroN(t *testing.T) {
	ix := buildTest("alpha beta")
	if hits, _ := ix.Search("", 5); len(hits) != 0 {
		t.Error("empty query returned hits")
	}
	if hits, _ := ix.Search("alpha", 0); len(hits) != 0 {
		t.Error("n=0 returned hits")
	}
	if hits, _ := ix.Search("alpha", -1); len(hits) != 0 {
		t.Error("negative n returned hits")
	}
}

func TestSearchDeterministicTieBreak(t *testing.T) {
	// Identical docs score identically; ties must break by doc id.
	ix := buildTest("same text here", "same text here", "same text here")
	for trial := 0; trial < 5; trial++ {
		ids, err := ix.Search("same", 3)
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range ids {
			if id != i {
				t.Fatalf("trial %d: hit order %v", trial, ids)
			}
		}
	}
}

func TestSearchMultiTermQuery(t *testing.T) {
	ix := buildTest("white house politics", "white snow", "house music")
	ids, err := ix.Search("white house", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("got %d hits, want 3", len(ids))
	}
	if ids[0] != 0 {
		t.Errorf("doc with both terms should rank first: %v", ids)
	}
}

func TestSearchUsesAnalyzer(t *testing.T) {
	// With the Database analyzer, queries stem and stopwords vanish.
	ix := Build([]corpus.Document{doc(0, "running dogs")}, analysis.Database(), InQuery)
	hits, err := ix.Search("runs", 5) // stems to "run", matches "running"->"run"
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 {
		t.Errorf("stemmed query got %d hits, want 1", len(hits))
	}
	hits, _ = ix.Search("the", 5) // stopword-only query
	if len(hits) != 0 {
		t.Errorf("stopword query got %d hits", len(hits))
	}
}

func TestFetch(t *testing.T) {
	ix := buildTest("first", "second")
	d, err := ix.Fetch(1)
	if err != nil || d.Text != "second" {
		t.Errorf("Fetch(1) = %+v, %v", d, err)
	}
	if _, err := ix.Fetch(2); err == nil {
		t.Error("Fetch out of range did not error")
	}
	if _, err := ix.Fetch(-1); err == nil {
		t.Error("Fetch(-1) did not error")
	}
}

func TestLanguageModelMatchesIndex(t *testing.T) {
	ix := buildTest("apple apple bear", "apple cat")
	lm := ix.LanguageModel()
	if lm.Docs() != 2 || lm.VocabSize() != 3 {
		t.Errorf("LM shape wrong: %v", lm)
	}
	if lm.DF("apple") != 2 || lm.CTF("apple") != 3 {
		t.Errorf("LM apple stats wrong")
	}
	if lm.TotalCTF() != ix.TotalTerms() {
		t.Errorf("LM totalCTF %d != index total %d", lm.TotalCTF(), ix.TotalTerms())
	}
}

func TestInQueryScoreBounds(t *testing.T) {
	// Single-term InQuery beliefs lie in (0.4, 1.0).
	ix := buildTest("apple apple apple", "apple pie", "banana")
	hits, err := ix.SearchScored("apple", 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		if h.Score <= 0.4 || h.Score >= 1.0 {
			t.Errorf("InQuery belief %f outside (0.4, 1.0)", h.Score)
		}
	}
}

func TestBM25RankingAgreesOnExtremes(t *testing.T) {
	ix := Build([]corpus.Document{
		doc(0, "apple apple apple pie"),
		doc(1, "apple banana cherry date"),
	}, analysis.Raw(), BM25)
	hits, err := ix.SearchScored("apple", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 || hits[0].Doc != 0 {
		t.Errorf("BM25 ranking wrong: %+v", hits)
	}
	for _, h := range hits {
		if h.Score < 0 {
			t.Errorf("BM25 score negative: %f", h.Score)
		}
	}
}

func TestSearchHitsWithinBounds(t *testing.T) {
	ix := buildTest("a b c", "b c d", "c d e", "d e f")
	if err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw%6) + 1
		ids, err := ix.Search("c", n)
		if err != nil {
			return false
		}
		if len(ids) > n {
			return false
		}
		for _, id := range ids {
			if id < 0 || id >= ix.NumDocs() {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTotalHits(t *testing.T) {
	ix := buildTest("apple pie", "apple tart", "banana split", "cherry pie")
	cases := []struct {
		query string
		want  int
	}{
		{"apple", 2},
		{"pie", 2},
		{"apple pie", 3}, // union: docs 0, 1, 3
		{"zzz", 0},
		{"", 0},
	}
	for _, c := range cases {
		got, err := ix.TotalHits(c.query)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("TotalHits(%q) = %d, want %d", c.query, got, c.want)
		}
	}
}

func TestTopNMatchesFullSort(t *testing.T) {
	// The heap path must produce exactly the full-sort ordering,
	// including tie-breaks.
	if err := quick.Check(func(raw [40]uint8, nRaw uint8) bool {
		hits := make([]Hit, len(raw))
		for i, v := range raw {
			hits[i] = Hit{Doc: i, Score: float64(v % 8)} // force score ties
		}
		n := int(nRaw%12) + 1
		got := topN(append([]Hit(nil), hits...), n)

		want := append([]Hit(nil), hits...)
		sort.Slice(want, func(i, j int) bool { return betterHit(want[i], want[j]) })
		if n < len(want) {
			want = want[:n]
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSearchLargeResultSetUsesHeapPath(t *testing.T) {
	// >4n candidates triggers the heap path; results must stay correct.
	docs := make([]corpus.Document, 200)
	for i := range docs {
		reps := i%7 + 1
		text := ""
		for r := 0; r < reps; r++ {
			text += "common "
		}
		docs[i] = corpus.Document{ID: i, Text: text + "filler"}
	}
	ix := Build(docs, analysis.Raw(), InQuery)
	top, err := ix.SearchScored("common", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 5 {
		t.Fatalf("got %d hits", len(top))
	}
	for i := 1; i < len(top); i++ {
		if betterHit(top[i], top[i-1]) {
			t.Fatalf("hits out of order: %+v", top)
		}
	}
	// Highest-tf docs (i%7 == 6) must dominate the top.
	if top[0].Doc%7 != 6 {
		t.Errorf("top hit %+v is not a max-tf document", top[0])
	}
}

func TestScoringString(t *testing.T) {
	if InQuery.String() != "inquery" || BM25.String() != "bm25" {
		t.Error("Scoring.String wrong")
	}
	if Scoring(99).String() != "unknown" {
		t.Error("unknown scoring String wrong")
	}
}

var buildSink *Index

func BenchmarkIndexBuild(b *testing.B) {
	docs := corpus.Scaled(corpus.CACM(), 0.05).MustGenerate()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildSink = Build(docs, analysis.Database(), InQuery)
	}
}

func BenchmarkSearchOneTerm(b *testing.B) {
	docs := corpus.Scaled(corpus.CACM(), 0.2).MustGenerate()
	ix := Build(docs, analysis.Database(), InQuery)
	lm := ix.LanguageModel()
	terms := lm.TopTerms(langmodel.ByDF, 100) // frequent terms: worst-case posting lists
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Search(terms[i%len(terms)], 4); err != nil {
			b.Fatal(err)
		}
	}
}

// termScoreRef is a posting's score with every factor computed at the
// posting, as the scorer did before it computed the df-only factor once per
// query term. It is the oracle for that hoist.
func termScoreRef(ix *Index, tf, dl float64, df int, avgdl float64) float64 {
	n := float64(len(ix.docs))
	switch ix.scoring {
	case BM25:
		const k1, b = 1.2, 0.75
		idf := math.Log((n - float64(df) + 0.5) / (float64(df) + 0.5))
		if idf < 0 {
			idf = 0
		}
		denom := tf + k1*(1-b+b*dl/avgdl)
		return idf * tf * (k1 + 1) / denom
	default: // InQuery
		t := tf / (tf + 0.5 + 1.5*dl/avgdl)
		i := math.Log((n+0.5)/float64(df)) / math.Log(n+1)
		return 0.4 + 0.6*t*i
	}
}

// TestSearchScoredBitsMatchPerPostingScore: computing the df-only factor
// once per query term leaves every score bit-identical to the per-posting
// formula, for both scorings, over every document a query of frequent
// terms (the longest posting lists) touches.
func TestSearchScoredBitsMatchPerPostingScore(t *testing.T) {
	docs := corpus.Scaled(corpus.WSJ88(), 0.02).MustGenerate()
	for _, scoring := range []Scoring{InQuery, BM25} {
		ix := Build(docs, analysis.Database(), scoring)
		terms := ix.LanguageModel().TopTerms(langmodel.ByDF, 40)
		compared := 0
		for i := 0; i < len(terms); i += 2 {
			q := strings.Join(terms[i:min(i+3, len(terms))], " ")
			got, err := ix.SearchScored(q, len(docs))
			if err != nil {
				t.Fatal(err)
			}
			want := referenceSearchScored(ix, q, len(docs))
			if len(got) != len(want) {
				t.Fatalf("%s q=%q: %d hits, want %d", scoring, q, len(got), len(want))
			}
			for j := range want {
				if got[j].Doc != want[j].Doc || math.Float64bits(got[j].Score) != math.Float64bits(want[j].Score) {
					t.Fatalf("%s q=%q: hit %d = %+v, per-posting formula %+v", scoring, q, j, got[j], want[j])
				}
			}
			compared += len(got)
		}
		if compared < 1000 {
			t.Fatalf("%s: only %d scores compared", scoring, compared)
		}
	}
}

// referenceSearchScored is the pre-densification implementation — a
// per-query map accumulator followed by a full sort, scoring each posting
// with termScoreRef — kept in tests as the oracle the pooled dense
// accumulator must match bit for bit.
func referenceSearchScored(ix *Index, query string, n int) []Hit {
	if n <= 0 {
		return nil
	}
	terms := ix.analyzer.Tokens(query)
	if len(terms) == 0 {
		return nil
	}
	scores := make(map[int32]float64)
	avgdl := ix.avgDocLen()
	for _, t := range terms {
		plist, _ := ix.row(t)
		if plist == nil {
			continue
		}
		df := len(plist)
		for _, p := range plist {
			scores[p.doc] += termScoreRef(ix, float64(p.tf), float64(ix.docLens[p.doc]), df, avgdl)
		}
	}
	if len(scores) == 0 {
		return nil
	}
	hits := make([]Hit, 0, len(scores))
	for doc, s := range scores {
		hits = append(hits, Hit{Doc: int(doc), Score: s})
	}
	sort.Slice(hits, func(i, j int) bool { return betterHit(hits[i], hits[j]) })
	if n < len(hits) {
		hits = hits[:n]
	}
	return hits
}

func TestSearchScoredMatchesReference(t *testing.T) {
	docs := corpus.Scaled(corpus.CACM(), 0.1).MustGenerate()
	for _, scoring := range []Scoring{InQuery, BM25} {
		ix := Build(docs, analysis.Database(), scoring)
		queries := []string{
			"the", "algorithm data", "computing system language program",
			"zzz-unknown", "the zzz-unknown", "", "the the the",
		}
		for _, q := range queries {
			for _, n := range []int{1, 4, 17, len(docs), len(docs) * 2} {
				got, err := ix.SearchScored(q, n)
				if err != nil {
					t.Fatal(err)
				}
				want := referenceSearchScored(ix, q, n)
				if len(got) != len(want) {
					t.Fatalf("%s q=%q n=%d: %d hits, reference %d", scoring, q, n, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s q=%q n=%d: hit %d = %+v, reference %+v", scoring, q, n, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestTopNCoveringAllHits(t *testing.T) {
	// n >= len(hits) must behave like a full sort, not panic or truncate.
	hits := []Hit{{Doc: 2, Score: 1}, {Doc: 0, Score: 3}, {Doc: 1, Score: 3}}
	for _, n := range []int{3, 4, 1000} {
		got := topN(append([]Hit(nil), hits...), n)
		want := []Hit{{Doc: 0, Score: 3}, {Doc: 1, Score: 3}, {Doc: 2, Score: 1}}
		if len(got) != len(want) {
			t.Fatalf("n=%d: got %d hits", n, len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: got %+v, want %+v", n, got, want)
			}
		}
	}
}

// TestSearchScoredScratchReuse hammers one pooled scratch across indexes of
// different sizes to exercise the generation-mark reset and buffer
// regrowth paths.
func TestSearchScoredScratchReuse(t *testing.T) {
	small := buildTest("apple pie", "apple tart", "banana bread")
	large := buildTest(
		"apple one", "apple two", "apple three", "apple four", "apple five",
		"apple six", "apple seven", "apple eight", "apple nine", "apple ten",
	)
	for round := 0; round < 50; round++ {
		for _, ix := range []*Index{small, large, small} {
			got, err := ix.SearchScored("apple", 3)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceSearchScored(ix, "apple", 3)
			if len(got) != len(want) {
				t.Fatalf("round %d: %d hits, want %d", round, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("round %d: hit %d = %+v, want %+v", round, i, got[i], want[i])
				}
			}
		}
	}
}

// refIndex is the map-based index Build replaced: a posting list and a ctf
// per term, grown one document at a time.
type refIndex struct {
	postings map[string][]posting
	ctf      map[string]int64
	docLens  []int32
	totalLen int64
}

// referenceBuild indexes docs the way the map-based Add did, one document
// at a time with a per-document tf map. It is the oracle for Build.
func referenceBuild(docs []corpus.Document, an analysis.Analyzer) *refIndex {
	ref := &refIndex{postings: make(map[string][]posting), ctf: make(map[string]int64)}
	for id, d := range docs {
		tokens := an.Tokens(d.Text)
		tf := make(map[string]int32, len(tokens))
		for _, t := range tokens {
			tf[t]++
			ref.ctf[t]++
		}
		for t, n := range tf {
			ref.postings[t] = append(ref.postings[t], posting{doc: int32(id), tf: n})
		}
		ref.docLens = append(ref.docLens, int32(len(tokens)))
		ref.totalLen += int64(len(tokens))
	}
	return ref
}

// languageModel is LanguageModel over the reference index.
func (ref *refIndex) languageModel(nDocs int) *langmodel.Model {
	terms := make([]string, 0, len(ref.postings))
	for t := range ref.postings {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	m := langmodel.New()
	for _, t := range terms {
		m.AddTerm(t, langmodel.TermStats{DF: len(ref.postings[t]), CTF: ref.ctf[t]})
	}
	m.SetDocs(nDocs)
	return m
}

// TestBuildMatchesReference: the one-pass CSR build holds exactly what the
// map-based builder held — every term's df, ctf and posting row in order,
// document lengths, totals and the actual model's fingerprint — over a
// generated corpus under both analyzers and over the edge cases.
func TestBuildMatchesReference(t *testing.T) {
	wsj := corpus.Scaled(corpus.WSJ88(), 0.02).MustGenerate()
	cases := []struct {
		name string
		docs []corpus.Document
	}{
		{"wsj88", wsj},
		{"empty", nil},
		{"edges", []corpus.Document{doc(0, "apple apple bear"), doc(1, ""), doc(2, "the of and the"), doc(3, "bear apple")}},
	}
	for _, c := range cases {
		for _, an := range []struct {
			name string
			an   analysis.Analyzer
		}{{"database", analysis.Database()}, {"raw", analysis.Raw()}} {
			ix := Build(c.docs, an.an, InQuery)
			ref := referenceBuild(c.docs, an.an)
			name := c.name + "/" + an.name
			if ix.NumDocs() != len(c.docs) || ix.TotalTerms() != ref.totalLen {
				t.Errorf("%s: NumDocs %d TotalTerms %d, want %d %d", name, ix.NumDocs(), ix.TotalTerms(), len(c.docs), ref.totalLen)
			}
			if ix.VocabSize() != len(ref.postings) {
				t.Errorf("%s: VocabSize %d, want %d", name, ix.VocabSize(), len(ref.postings))
			}
			if !slices.Equal(ix.docLens, ref.docLens) {
				t.Errorf("%s: document lengths differ", name)
			}
			for term, want := range ref.postings {
				row, ctf := ix.row(term)
				if !slices.Equal(row, want) || ix.DF(term) != len(want) || ctf != ref.ctf[term] || ix.CTF(term) != ctf {
					t.Fatalf("%s: term %q: df %d ctf %d row %v, want %d %d %v",
						name, term, ix.DF(term), ix.CTF(term), row, len(want), ref.ctf[term], want)
				}
			}
			if got, want := ix.LanguageModel().Fingerprint(), ref.languageModel(len(c.docs)).Fingerprint(); got != want {
				t.Errorf("%s: model fingerprint %#x, want %#x", name, got, want)
			}
		}
	}
}

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestBuildBytesPerPosting: an index costs little more than its postings'
// 8-byte payload. The map of per-term posting slices it replaced cost
// about 25 B a posting.
func TestBuildBytesPerPosting(t *testing.T) {
	p := corpus.CACM()
	p.Docs = 2000
	docs := p.MustGenerate()
	before := liveHeap()
	ix := Build(docs, analysis.Database(), InQuery)
	grown := liveHeap() - before
	lm := ix.LanguageModel()
	postings := 0
	lm.Range(func(_ string, st langmodel.TermStats) bool {
		postings += st.DF
		return true
	})
	perPosting := float64(grown) / float64(postings)
	t.Logf("%d terms, %d postings, %d live heap bytes: %.1f B a posting", lm.VocabSize(), postings, grown, perPosting)
	if perPosting >= 18 {
		t.Errorf("index holds %.1f B a posting, want < 18", perPosting)
	}
}

// TestSearchScoredAllocations: with a warm scratch pool, a ranked search
// allocates once, for the slice it returns, under either scoring function,
// and a search that finds nothing allocates nothing. A scratch grows once,
// by its two accumulator arrays, and clears its marks at the generation
// wrap without allocating. Between them the cases run every statement of
// SearchScored and of what it calls.
func TestSearchScoredAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the scratch pool drops entries under -race")
	}
	docs := corpus.Scaled(corpus.CACM(), 0.1).MustGenerate()
	// Every document holds alpha, so BM25 clamps its negative idf to zero
	// and the three hits tie: ids break the tie.
	tiny := []corpus.Document{{ID: 0, Text: "alpha beta"}, {ID: 1, Text: "alpha gamma"}, {ID: 2, Text: "alpha beta delta"}}
	type search struct {
		ix     *Index
		query  string
		n      int
		hits   int
		allocs float64
	}
	var cases []search
	for _, s := range []Scoring{InQuery, BM25} {
		ix := Build(docs, analysis.Database(), s)
		q := strings.Join(ix.LanguageModel().TopTerms(langmodel.ByDF, 3), " ")
		cases = append(cases,
			search{ix, q + " zzunknown", 10, 10, 1},
			search{ix, q, 0, 0, 0},             // no rows asked for
			search{ix, "the of and", 10, 0, 0}, // every token a stopword
			search{ix, "zzunknown", 10, 0, 0},  // no posting anywhere
			search{Build(tiny, analysis.Raw(), s), "alpha", 10, 3, 1},
			search{Build(nil, analysis.Raw(), s), "alpha", 10, 0, 0}, // no documents at all
		)
	}
	for _, c := range cases {
		var hits []Hit
		n := testing.AllocsPerRun(100, func() {
			var err error
			if hits, err = c.ix.SearchScored(c.query, c.n); err != nil {
				t.Fatal(err)
			}
		})
		if len(hits) != c.hits || n != c.allocs {
			t.Errorf("%v SearchScored(%q, %d): %d hits and %v allocations a query, want %d and %v",
				c.ix.scoring, c.query, c.n, len(hits), n, c.hits, c.allocs)
		}
		for i := 1; i < len(hits); i++ {
			if betterHit(hits[i], hits[i-1]) {
				t.Errorf("%v SearchScored(%q): hit %d ranks before hit %d", c.ix.scoring, c.query, i, i-1)
			}
		}
	}
	// A search never hands topN one document twice; only a direct call can
	// ask its sort about two equal hits.
	twice := []Hit{{Doc: 4, Score: 0.5}, {Doc: 4, Score: 0.5}}
	if n := testing.AllocsPerRun(100, func() {
		if top := topN(twice, 2); len(top) != 2 {
			t.Fatal("topN dropped a hit")
		}
	}); n != 1 {
		t.Errorf("topN: %v allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		var s searchScratch
		s.reset(1 << 14) // past what the compiler would keep on the stack
	}); n != 2 {
		t.Errorf("growing a scratch: %v allocations, want 2", n)
	}
	s := searchScratch{scores: make([]float64, 8), mark: make([]uint32, 8)}
	if n := testing.AllocsPerRun(100, func() {
		s.gen, s.mark[3] = math.MaxUint32, 7
		if s.reset(8); s.gen != 1 || s.mark[3] != 0 {
			t.Fatal("the generation wrap left a stale mark")
		}
	}); n != 0 {
		t.Errorf("generation wrap: %v allocations, want 0", n)
	}
}
