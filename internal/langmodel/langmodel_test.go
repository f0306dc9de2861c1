package langmodel

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/analysis"
	"repro/internal/corpus"
)

func docModel(texts ...string) *Model {
	m := New()
	for _, t := range texts {
		m.AddDocument(strings.Fields(t))
	}
	return m
}

func TestAddDocumentCounts(t *testing.T) {
	m := docModel("apple apple bear", "apple cat")
	if got := m.DF("apple"); got != 2 {
		t.Errorf("df(apple) = %d, want 2", got)
	}
	if got := m.CTF("apple"); got != 3 {
		t.Errorf("ctf(apple) = %d, want 3", got)
	}
	if got := m.DF("bear"); got != 1 {
		t.Errorf("df(bear) = %d, want 1", got)
	}
	if m.Docs() != 2 {
		t.Errorf("docs = %d, want 2", m.Docs())
	}
	if m.TotalCTF() != 5 {
		t.Errorf("totalCTF = %d, want 5", m.TotalCTF())
	}
	if m.VocabSize() != 3 {
		t.Errorf("vocab = %d, want 3", m.VocabSize())
	}
}

func TestAvgTF(t *testing.T) {
	st := TermStats{DF: 4, CTF: 10}
	if got := st.AvgTF(); got != 2.5 {
		t.Errorf("AvgTF = %f, want 2.5", got)
	}
	if got := (TermStats{}).AvgTF(); got != 0 {
		t.Errorf("AvgTF of zero stats = %f, want 0", got)
	}
}

func TestStatsAndContains(t *testing.T) {
	m := docModel("x y x")
	if st, ok := m.Stats("x"); !ok || st.DF != 1 || st.CTF != 2 {
		t.Errorf("Stats(x) = %+v, %v", st, ok)
	}
	if _, ok := m.Stats("zzz"); ok {
		t.Error("Stats(zzz) reported present")
	}
	if !m.Contains("y") || m.Contains("zzz") {
		t.Error("Contains wrong")
	}
}

func TestVocabularySorted(t *testing.T) {
	m := docModel("zebra apple mango")
	want := []string{"apple", "mango", "zebra"}
	if got := m.Vocabulary(); !reflect.DeepEqual(got, want) {
		t.Errorf("Vocabulary = %v, want %v", got, want)
	}
}

func TestCloneIndependent(t *testing.T) {
	m := docModel("a b c")
	c := m.Clone()
	c.AddDocument([]string{"a", "d"})
	if m.DF("a") != 1 || m.Docs() != 1 {
		t.Error("mutating clone affected original")
	}
	if c.DF("a") != 2 || !c.Contains("d") {
		t.Error("clone did not record update")
	}
}

func TestAddTerm(t *testing.T) {
	m := New()
	m.AddTerm("apple", TermStats{DF: 1000, CTF: 2000})
	m.AddTerm("apple", TermStats{DF: 1, CTF: 5})
	m.SetDocs(3204)
	if m.DF("apple") != 1001 || m.CTF("apple") != 2005 || m.Docs() != 3204 {
		t.Errorf("AddTerm stats wrong: %v", m)
	}
}

func TestRangeEarlyStop(t *testing.T) {
	m := docModel("a b c d e")
	n := 0
	m.Range(func(string, TermStats) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Errorf("Range visited %d terms, want 2", n)
	}
}

func TestTopTerms(t *testing.T) {
	m := docModel("a a a b b c", "a b", "d d d d")
	// df: a=2 b=2 c=1 d=1; ctf: a=4 b=3 c=1 d=4; avgtf: a=2 b=1.5 c=1 d=4
	if got := m.TopTerms(ByDF, 2); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("TopTerms(ByDF) = %v", got)
	}
	if got := m.TopTerms(ByCTF, 2); !reflect.DeepEqual(got, []string{"a", "d"}) {
		t.Errorf("TopTerms(ByCTF) = %v", got)
	}
	if got := m.TopTerms(ByAvgTF, 1); !reflect.DeepEqual(got, []string{"d"}) {
		t.Errorf("TopTerms(ByAvgTF) = %v", got)
	}
	if got := m.TopTerms(ByDF, 100); len(got) != 4 {
		t.Errorf("TopTerms overshoot = %v", got)
	}
}

func TestRanksFractional(t *testing.T) {
	m := docModel("a a b", "a b", "c")
	// df: a=2, b=2, c=1 -> a and b tie for ranks 1-2 (avg 1.5), c rank 3.
	r := m.Ranks(ByDF)
	if r["a"] != 1.5 || r["b"] != 1.5 {
		t.Errorf("tied ranks = %f, %f, want 1.5", r["a"], r["b"])
	}
	if r["c"] != 3 {
		t.Errorf("rank(c) = %f, want 3", r["c"])
	}
}

func TestDenseRanks(t *testing.T) {
	m := docModel("a a b", "a b", "c")
	// df: a=2, b=2, c=1 -> dense: a,b share rank 1; c gets rank 2.
	r := m.DenseRanks(ByDF)
	if r["a"] != 1 || r["b"] != 1 {
		t.Errorf("tied dense ranks = %f, %f, want 1", r["a"], r["b"])
	}
	if r["c"] != 2 {
		t.Errorf("dense rank(c) = %f, want 2", r["c"])
	}
}

func TestDenseRanksNoTiesMatchesFractional(t *testing.T) {
	m := New()
	for i := 0; i < 10; i++ {
		m.AddTerm(term(i), TermStats{DF: 100 - i, CTF: 1})
	}
	dense := m.DenseRanks(ByDF)
	frac := m.Ranks(ByDF)
	for t2, v := range dense {
		if frac[t2] != v {
			t.Errorf("rank(%s): dense %f != fractional %f without ties", t2, v, frac[t2])
		}
	}
}

func TestRanksSumInvariant(t *testing.T) {
	// Fractional ranks always sum to n(n+1)/2 regardless of ties.
	if err := quick.Check(func(seed uint32) bool {
		m := New()
		n := int(seed%20) + 1
		for i := 0; i < n; i++ {
			m.AddTerm(term(i), TermStats{DF: int(seed>>3)%5 + 1, CTF: int64(i%3 + 1)})
		}
		sum := 0.0
		for _, v := range m.Ranks(ByDF) {
			sum += v
		}
		want := float64(n*(n+1)) / 2
		return math.Abs(sum-want) < 1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func term(i int) string {
	return string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
}

func TestNormalizeStopsAndStems(t *testing.T) {
	m := docModel("the running runs run")
	n := m.Normalize(analysis.Database())
	if n.Contains("the") {
		t.Error("stopword survived Normalize")
	}
	// running/runs/run all stem to "run"; stats merge.
	if n.DF("run") != 3 || n.CTF("run") != 3 {
		t.Errorf("run stats = df %d ctf %d, want 3, 3", n.DF("run"), n.CTF("run"))
	}
	if n.Docs() != m.Docs() {
		t.Error("Normalize lost doc count")
	}
}

func TestRestrict(t *testing.T) {
	a := docModel("x y z")
	b := docModel("y z w")
	r := a.Restrict(b)
	if r.Contains("x") || !r.Contains("y") || !r.Contains("z") {
		t.Errorf("Restrict vocabulary wrong: %v", r.Vocabulary())
	}
	if r.TotalCTF() != 2 {
		t.Errorf("Restrict totalCTF = %d, want 2", r.TotalCTF())
	}
}

func TestPrune(t *testing.T) {
	m := docModel("a b c", "a b", "a")
	// df: a=3, b=2, c=1.
	p := m.Prune(2)
	if p.Contains("c") {
		t.Error("df=1 term survived Prune(2)")
	}
	if !p.Contains("a") || !p.Contains("b") {
		t.Error("frequent terms pruned")
	}
	if p.Docs() != m.Docs() {
		t.Error("Prune changed doc count")
	}
	if p.TotalCTF() != m.TotalCTF()-m.CTF("c") {
		t.Errorf("pruned totalCTF = %d", p.TotalCTF())
	}
	// Original untouched.
	if !m.Contains("c") {
		t.Error("Prune mutated the receiver")
	}
	// Prune(1) is identity.
	if !m.Prune(1).Equal(m) {
		t.Error("Prune(1) not identity")
	}
	// Prune(huge) empties the vocabulary.
	if m.Prune(100).VocabSize() != 0 {
		t.Error("Prune(100) left terms")
	}
}

// TestPersistRoundTrip: a model read back from QBLM1 is Equal to the one
// written and fingerprints alike, even when the one written is a chained
// snapshot. A warm start compares the fingerprints of models read from the
// store with those the snapshot recorded, so a drift here would reject
// every persisted snapshot.
func TestPersistRoundTrip(t *testing.T) {
	live := docModel("apple apple bear", "cat apple")
	live.Snapshot()
	live.AddDocument([]string{"dog", "apple"})
	m := live.Snapshot()
	var buf bytes.Buffer
	if _, err := m.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(got) || got.Fingerprint() != m.Fingerprint() {
		t.Errorf("round trip mismatch: %v vs %v", m, got)
	}
}

// TestReadRejectsNegative: QBLM1 stores counts unsigned, so a count past the
// signed range would read back negative; ReadBinary refuses it.
func TestReadRejectsNegative(t *testing.T) {
	header := []byte("QBLM1\x01\x01\x01x") // docs 1, one term "x"
	cases := map[string][]byte{
		"docs": binary.AppendUvarint([]byte("QBLM1"), 1<<63),
		"df":   append(binary.AppendUvarint(header, 1<<63), 1),
		"ctf":  binary.AppendUvarint(append(header, 1), 1<<63),
	}
	for name, data := range cases {
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "overflows") {
			t.Errorf("%s of 2^63: err = %v, want an overflow error", name, err)
		}
	}
}

// TestReadRejectsGarbage: a model file in the JSON export older versions
// wrote, or any other text, fails on the magic, not somewhere inside.
func TestReadRejectsGarbage(t *testing.T) {
	for _, in := range []string{`{"docs":1,"terms":{"x":[1,2]}}`, "not a model"} {
		if _, err := ReadBinary(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "bad magic") {
			t.Errorf("ReadBinary(%q) err = %v, want bad magic", in, err)
		}
	}
}

func TestDumpTSV(t *testing.T) {
	m := docModel("b a a")
	var buf bytes.Buffer
	if err := m.DumpTSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "a\t1\t2") || !strings.Contains(out, "b\t1\t1") {
		t.Errorf("unexpected TSV output:\n%s", out)
	}
	if !strings.HasPrefix(out, "# docs=1") {
		t.Errorf("missing header: %q", out)
	}
	// Sorted order: a before b.
	if strings.Index(out, "\na\t") > strings.Index(out, "\nb\t") {
		t.Error("TSV not sorted")
	}
}

func TestEqual(t *testing.T) {
	a := docModel("x y")
	b := docModel("x y")
	if !a.Equal(b) {
		t.Error("identical models not Equal")
	}
	b.AddDocument([]string{"z"})
	if a.Equal(b) {
		t.Error("different models Equal")
	}
	// Every round-trip test checks through Equal, so a loader that got the
	// total wrong would pass them all if Equal did not compare it.
	c := a.Clone()
	c.totalCTF++
	if a.Equal(c) || c.Equal(a) {
		t.Error("models with different TotalCTF are Equal")
	}
}

// sortedStats lists the model's terms with their statistics in term order.
func (m *Model) sortedStats() []struct {
	Term string
	TermStats
} {
	out := make([]struct {
		Term string
		TermStats
	}, 0, m.VocabSize())
	m.Range(func(t string, st TermStats) bool {
		out = append(out, struct {
			Term string
			TermStats
		}{t, st})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Term < out[j].Term })
	return out
}

func TestSortedStatsOrdered(t *testing.T) {
	m := docModel("c b a")
	st := m.sortedStats()
	if len(st) != 3 || st[0].Term != "a" || st[2].Term != "c" {
		t.Errorf("sortedStats = %v", st)
	}
}

// BenchmarkAddDocument folds the first 100 documents of a generated WSJ88
// sample, tokenized as the sampler tokenizes them, into a fresh model per
// op. Early in a sample most of a document's terms are new to the model,
// so a fresh model is what prices the new-term path, not only the lookups
// of terms already known.
func BenchmarkAddDocument(b *testing.B) {
	docs := corpus.Scaled(corpus.WSJ88(), 0.01).MustGenerate()[:100]
	tokens := make([][]string, len(docs))
	for i, d := range docs {
		tokens[i] = analysis.Raw().Tokens(d.Text)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := New()
		for _, toks := range tokens {
			m.AddDocument(toks)
		}
	}
}

func BenchmarkRanks(b *testing.B) {
	m := New()
	for i := 0; i < 5000; i++ {
		m.AddTerm(term(i), TermStats{DF: i%97 + 1, CTF: int64(i%31 + 1)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Ranks(ByDF)
	}
}

// TestAddDocumentReusesItsScratch: folding a document in allocates for the
// vocabulary it adds, not for the document — a document of known terms is
// free. Its working memory is the per-position document stamp: one count
// per term, all of them for documents already folded, none of them a
// token (tokens alias text the caller is about to drop, and no model term
// may point into it). Terms added without a document get their stamp on
// the next fold, and snapshots and clones carry no working memory.
func TestAddDocumentReusesItsScratch(t *testing.T) {
	text := "the quick brown fox jumps over the lazy dog and the quick cat"
	tokens := analysis.Raw().Tokens(text)
	m := New()
	m.AddDocument(tokens)
	if got := testing.AllocsPerRun(50, func() { m.AddDocument(tokens) }); got != 0 {
		t.Errorf("a document of known terms cost %v allocations", got)
	}
	m.AddTerm("zebra", TermStats{DF: 4, CTF: 5})
	m.AddDocument([]string{"zebra", "zebra", "quick", "yak"})
	if len(m.stamp) != m.VocabSize() {
		t.Errorf("%d stamps for %d terms", len(m.stamp), m.VocabSize())
	}
	for p, s := range m.stamp {
		if s == 0 || s > m.doc {
			t.Errorf("term %q has stamp %d past document %d", m.TermAt(p), s, m.doc)
		}
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(text)))
	for i := 0; i < m.VocabSize(); i++ {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(m.TermAt(i)))); p >= lo && p < lo+uintptr(len(text)) {
			t.Errorf("term %q is a view of the document", m.TermAt(i))
		}
	}
	want := docModel(text)
	fresh := New()
	fresh.AddDocument(tokens)
	if !fresh.Equal(want) || m.DF("quick") != 53 || m.CTF("the") != 3*52 ||
		m.DF("zebra") != 5 || m.CTF("zebra") != 7 || m.DF("yak") != 1 {
		t.Errorf("the stamp miscounts: df(quick)=%d ctf(the)=%d df(zebra)=%d ctf(zebra)=%d",
			m.DF("quick"), m.CTF("the"), m.DF("zebra"), m.CTF("zebra"))
	}
	m.doc = math.MaxUint32 // the next fold wraps the numbering
	m.AddDocument([]string{"yak", "yak"})
	if m.doc != 1 || m.DF("yak") != 2 || m.CTF("yak") != 3 {
		t.Errorf("after the numbering wrapped: document %d, df(yak)=%d ctf(yak)=%d", m.doc, m.DF("yak"), m.CTF("yak"))
	}
	snap, clone := m.Snapshot(), m.Clone()
	if snap.stamp != nil || snap.doc != 0 || clone.stamp != nil || clone.doc != 0 {
		t.Error("a snapshot or clone took the working memory along")
	}
	clone.AddDocument([]string{"quick", "quick", "new"})
	if clone.DF("quick") != 54 || clone.CTF("quick") != 2*52+3 || clone.DF("new") != 1 {
		t.Errorf("a clone's first fold miscounts: df(quick)=%d ctf(quick)=%d", clone.DF("quick"), clone.CTF("quick"))
	}
}

// TestNormalizeBuildsAtFullSize: under an analyzer that rewrites no term,
// Normalize allocates its output's order, stats and index at their final
// size and nothing else that grows with the vocabulary — no regrowth or
// re-index on the way up — so its allocation count does not depend on n.
func TestNormalizeBuildsAtFullSize(t *testing.T) {
	var allocs []float64
	for _, n := range []int{100, 1000, 10000} {
		m := New()
		for i := 0; i < n; i++ {
			m.AddTerm(fmt.Sprintf("w%d", i), TermStats{DF: 1, CTF: 1})
		}
		allocs = append(allocs, testing.AllocsPerRun(5, func() {
			m.version++ // retire the memoized view, so each run rebuilds it
			m.Normalize(analysis.Raw())
		}))
		out := m.Normalize(analysis.Raw())
		if cap(out.order) != n || cap(out.stats) != n || len(out.index) != indexSize(n) {
			t.Errorf("n=%d: order cap %d, stats cap %d, index %d slots (want %d)", n, cap(out.order), cap(out.stats), len(out.index), indexSize(n))
		}
	}
	if allocs[1] != allocs[0] || allocs[2] != allocs[0] {
		t.Errorf("Normalize allocations at 100 / 1000 / 10000 terms: %v, want them equal", allocs)
	}
}

// TestNormalizeSharesVocabulary: the normalized view is built from strings
// its source already owns — a term that survives unchanged, or as a prefix,
// is not copied — and is still the model a cloning Normalize would build.
func TestNormalizeSharesVocabulary(t *testing.T) {
	m := docModel("sampling databases sampled database happy connection")
	n := m.Normalize(analysis.Database())
	for term, stem := range map[string]string{"sampling": "sampl", "databases": "databas", "connection": "connect"} {
		src, got := "", ""
		m.Range(func(t string, _ TermStats) bool { src = t; return t != term })
		n.Range(func(t string, _ TermStats) bool { got = t; return t != stem })
		if got != stem || unsafe.StringData(got) != unsafe.StringData(src) {
			t.Errorf("%q → %q does not share %q's bytes", term, got, src)
		}
	}
	if n.DF("sampl") != 2 || n.DF("databas") != 2 || n.DF("happi") != 1 {
		t.Errorf("normalized counts: sampl=%d databas=%d happi=%d", n.DF("sampl"), n.DF("databas"), n.DF("happi"))
	}
}
