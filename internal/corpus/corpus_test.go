package corpus

import (
	"hash/fnv"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/analysis"
)

// tiny returns a fast two-topic profile for unit tests.
func tiny() Profile {
	return Profile{
		Name:            "tiny",
		Docs:            200,
		SharedVocabSize: 500,
		SharedProb:      0.5,
		Topics: []TopicSpec{
			{Name: "alpha", VocabSize: 2000, Weight: 1},
			{Name: "beta", VocabSize: 2000, Weight: 1},
		},
		DocLenMu:    3.5,
		DocLenSigma: 0.5,
		MinDocLen:   5,
		ZipfS:       1.35,
		ZipfV:       2,
		MorphProb:   0.15,
		Seed:        99,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := tiny().Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := tiny().Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("doc %d differs between identical profiles", i)
		}
	}
}

func TestGenerateDocCountAndIDs(t *testing.T) {
	docs, err := tiny().Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 200 {
		t.Fatalf("got %d docs, want 200", len(docs))
	}
	for i, d := range docs {
		if d.ID != i {
			t.Fatalf("doc %d has ID %d", i, d.ID)
		}
		if d.Text == "" {
			t.Fatalf("doc %d has empty text", i)
		}
	}
}

func TestGenerateMinDocLen(t *testing.T) {
	p := tiny()
	p.MinDocLen = 7
	docs, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if n := len(strings.Fields(d.Text)); n < 7 {
			t.Fatalf("doc %d has %d tokens, want >= 7", d.ID, n)
		}
	}
}

func TestTopicsDisjointVocabularies(t *testing.T) {
	// Topic-specific words from different topics must not collide: collect
	// words that appear only in alpha docs vs only in beta docs and check
	// the synthetic topical markers differ.
	p := tiny()
	p.SharedProb = 0 // topic words only
	p.MorphProb = 0
	docs, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	vocabByTopic := map[int]map[string]bool{0: {}, 1: {}}
	for _, d := range docs {
		for _, w := range strings.Fields(d.Text) {
			vocabByTopic[d.Topic][w] = true
		}
	}
	if len(vocabByTopic[0]) == 0 || len(vocabByTopic[1]) == 0 {
		t.Fatal("a topic generated no vocabulary")
	}
	for w := range vocabByTopic[0] {
		if vocabByTopic[1][w] {
			t.Fatalf("word %q appears in both topic vocabularies", w)
		}
	}
}

func TestSharedHeadIsFunctionWords(t *testing.T) {
	// With SharedProb=1 the most frequent tokens must be real function
	// words, so stopword processing has something to do.
	p := tiny()
	p.SharedProb = 1
	p.MorphProb = 0
	docs, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, d := range docs {
		for _, w := range strings.Fields(d.Text) {
			counts[w]++
		}
	}
	best, bestN := "", 0
	for w, n := range counts {
		if n > bestN {
			best, bestN = w, n
		}
	}
	if best != "the" {
		t.Fatalf("most frequent shared word = %q (%d), want \"the\"", best, bestN)
	}
	stop := analysis.InqueryStoplist()
	if !stop.Contains(best) {
		t.Fatalf("head word %q not a stopword", best)
	}
}

func TestZipfSkewInGeneratedText(t *testing.T) {
	docs, err := tiny().Generate()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	total := 0
	for _, d := range docs {
		for _, w := range strings.Fields(d.Text) {
			counts[w]++
			total++
		}
	}
	// Head mass: the single most frequent term should hold >1% of tokens;
	// the vocabulary should be much smaller than the token count.
	max := 0
	for _, n := range counts {
		if n > max {
			max = n
		}
	}
	if float64(max)/float64(total) < 0.01 {
		t.Errorf("head term mass %.4f too small for Zipfian text", float64(max)/float64(total))
	}
	if len(counts) >= total/2 {
		t.Errorf("vocabulary %d vs tokens %d: not enough repetition", len(counts), total)
	}
}

func TestHeapsLawVocabularyGrowth(t *testing.T) {
	// Vocabulary keeps growing with more documents, but sub-linearly —
	// the paper's premise that %learned is a poor metric (§4.3.1).
	p := tiny()
	p.Docs = 800
	docs, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	vocabAt := func(n int) int {
		v := map[string]bool{}
		for _, d := range docs[:n] {
			for _, w := range strings.Fields(d.Text) {
				v[w] = true
			}
		}
		return len(v)
	}
	v200, v400, v800 := vocabAt(200), vocabAt(400), vocabAt(800)
	if !(v200 < v400 && v400 < v800) {
		t.Fatalf("vocabulary not growing: %d, %d, %d", v200, v400, v800)
	}
	// Sub-linear: doubling docs must not double vocabulary.
	if v800 >= 2*v400 || v400 >= 2*v200 {
		t.Fatalf("vocabulary growth not sub-linear: %d, %d, %d", v200, v400, v800)
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	bad := []func(*Profile){
		func(p *Profile) { p.Docs = 0 },
		func(p *Profile) { p.SharedVocabSize = 0 },
		func(p *Profile) { p.Topics = nil },
		func(p *Profile) { p.SharedProb = 1.5 },
		func(p *Profile) { p.ZipfS = 1.0 },
		func(p *Profile) { p.ZipfV = 0.5 },
		func(p *Profile) { p.Topics[0].VocabSize = 0 },
		func(p *Profile) { p.Topics[0].Weight = 0 },
	}
	for i, mutate := range bad {
		p := tiny()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
		if _, err := p.Generate(); err == nil {
			t.Errorf("mutation %d: Generate accepted invalid profile", i)
		}
	}
}

func TestScaled(t *testing.T) {
	p := tiny()
	if got := Scaled(p, 0.5).Docs; got != 100 {
		t.Errorf("Scaled(0.5) docs = %d, want 100", got)
	}
	if got := Scaled(p, 0.00001).Docs; got != 1 {
		t.Errorf("Scaled(tiny) docs = %d, want 1", got)
	}
	if got := Scaled(p, 2).Docs; got != 400 {
		t.Errorf("Scaled(2) docs = %d, want 400", got)
	}
}

func TestBuiltinProfilesValid(t *testing.T) {
	for _, p := range []Profile{CACM(), WSJ88(), TREC123(), Support()} {
		if err := p.Validate(); err != nil {
			t.Errorf("built-in profile %s invalid: %v", p.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	for _, want := range []Profile{CACM(), WSJ88(), TREC123(), Support()} {
		got, err := ByName(want.Name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", want.Name, err)
		}
		if got.Name != want.Name || got.Docs != want.Docs || got.Seed != want.Seed {
			t.Errorf("ByName(%q) = %s (%d docs, seed %#x), want %d docs, seed %#x",
				want.Name, got.Name, got.Docs, got.Seed, want.Docs, want.Seed)
		}
	}
	if _, err := ByName("cacm"); err == nil {
		t.Error("ByName accepted an unknown name")
	}
}

func TestBuiltinProfileOrdering(t *testing.T) {
	// Size and heterogeneity orderings drive the paper's results; guard them.
	c, w, tr := CACM(), WSJ88(), TREC123()
	if !(c.Docs < w.Docs && w.Docs < tr.Docs) {
		t.Errorf("doc counts not ordered: %d, %d, %d", c.Docs, w.Docs, tr.Docs)
	}
	if !(len(c.Topics) < len(w.Topics) && len(w.Topics) < len(tr.Topics)) {
		t.Errorf("heterogeneity not ordered: %d, %d, %d topics",
			len(c.Topics), len(w.Topics), len(tr.Topics))
	}
}

func TestSupportSeedsTable4Terms(t *testing.T) {
	p := Scaled(Support(), 0.1)
	docs, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, d := range docs {
		for _, w := range strings.Fields(d.Text) {
			counts[w]++
		}
	}
	missing := 0
	for _, w := range Table4Terms() {
		if counts[w] == 0 {
			missing++
		}
	}
	// Seed words hold the top topical ranks; nearly all must appear even in
	// a 10% sample of the corpus.
	if missing > 5 {
		t.Errorf("%d of 50 Table 4 seed terms never generated", missing)
	}
}

func TestSynthWordInjective(t *testing.T) {
	seen := map[string]int{}
	for i := 0; i < 50000; i++ {
		w := synthWord("sx", 0, i)
		if prev, dup := seen[w]; dup {
			t.Fatalf("synthWord collision: ranks %d and %d both yield %q", prev, i, w)
		}
		seen[w] = i
	}
}

func TestSynthWordDisjointAcrossSalts(t *testing.T) {
	a := map[string]bool{}
	for i := 0; i < 5000; i++ {
		a[synthWord("t", 1, i)] = true
	}
	for i := 0; i < 5000; i++ {
		if w := synthWord("t", 2, i); a[w] {
			t.Fatalf("salt collision on %q", w)
		}
	}
}

func TestSynthWordLowercaseLetters(t *testing.T) {
	if err := quick.Check(func(rank uint16, salt uint8) bool {
		w := synthWord("t", uint64(salt), int(rank))
		for _, r := range w {
			if r < 'a' || r > 'z' {
				return false
			}
		}
		return len(w) >= 3
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestComputeStats(t *testing.T) {
	docs := []Document{
		{ID: 0, Text: "the cat sat", Topic: 0},
		{ID: 1, Text: "the dog ran fast", Topic: 1},
	}
	s := ComputeStats("x", docs, analysis.Raw())
	if s.Docs != 2 {
		t.Errorf("Docs = %d", s.Docs)
	}
	if s.TotalTerms != 7 {
		t.Errorf("TotalTerms = %d, want 7", s.TotalTerms)
	}
	if s.UniqueTerms != 6 { // the, cat, sat, dog, ran, fast
		t.Errorf("UniqueTerms = %d, want 6", s.UniqueTerms)
	}
	if s.Topics != 2 {
		t.Errorf("Topics = %d, want 2", s.Topics)
	}
	if s.Bytes <= 0 {
		t.Errorf("Bytes = %d", s.Bytes)
	}
}

func TestMustGeneratePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustGenerate did not panic on invalid profile")
		}
	}()
	Profile{}.MustGenerate()
}

func BenchmarkGenerateTiny(b *testing.B) {
	p := tiny()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Generate(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestNameSaltDistinct(t *testing.T) {
	names := []string{
		"finance", "law", "medicine", "sport", "energy", "travel",
		"science", "art", "farming", "military", "weather", "music",
		"film", "food", "space", "computing", "markets", "politics",
		"business", "world", "newswire", "federal-register", "patents",
		"abstracts", "magazine", "agriculture", "transport", "support",
	}
	seen := map[uint64]string{}
	for _, n := range names {
		s := nameSalt(n)
		if s == 0 {
			t.Errorf("nameSalt(%q) = 0", n)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("salt collision: %q and %q", prev, n)
		}
		seen[s] = n
	}
}

func TestSameTopicNameSharesVocabularyAcrossCorpora(t *testing.T) {
	// Two independently seeded corpora with the same topic name draw from
	// the same topical vocabulary...
	mk := func(seed uint64, topic string) map[string]bool {
		p := tiny()
		p.Seed = seed
		p.SharedProb = 0
		p.MorphProb = 0
		p.Topics = []TopicSpec{{Name: topic, VocabSize: 2000, Weight: 1}}
		vocab := map[string]bool{}
		for _, d := range p.MustGenerate() {
			for _, w := range strings.Fields(d.Text) {
				vocab[w] = true
			}
		}
		return vocab
	}
	a := mk(1, "computing")
	b := mk(2, "computing")
	shared := 0
	for w := range a {
		if b[w] {
			shared++
		}
	}
	if shared < len(a)/4 {
		t.Errorf("same-named topics share only %d/%d words", shared, len(a))
	}
	// ...while differently named topics are disjoint.
	c := mk(3, "gardening")
	for w := range a {
		if c[w] {
			t.Fatalf("word %q shared between computing and gardening topics", w)
		}
	}
}

func TestTRECContainsWSJTopics(t *testing.T) {
	// TREC CDs 1-3 contain the Wall Street Journal; the profiles encode
	// that by sharing four topic names, which in turn shares topical
	// vocabulary. The random-olm experiments (§5.2) depend on this overlap.
	wsjTopics := map[string]bool{}
	for _, topic := range WSJ88().Topics {
		wsjTopics[topic.Name] = true
	}
	shared := 0
	for _, topic := range TREC123().Topics {
		if wsjTopics[topic.Name] {
			shared++
		}
	}
	if shared != len(wsjTopics) {
		t.Errorf("TREC123 shares %d of WSJ88's %d topics, want all", shared, len(wsjTopics))
	}
}

// generatedDigest is an FNV-64a digest over every document's Title and
// Text, each followed by a zero byte so that no two corpora collide by
// moving bytes across a boundary.
func generatedDigest(docs []Document) uint64 {
	h := fnv.New64a()
	for _, d := range docs {
		h.Write([]byte(d.Title))
		h.Write([]byte{0})
		h.Write([]byte(d.Text))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// TestGenerateGolden pins every generated byte: a change to how documents
// are written out (buffers, suffix handling) must not move a single one.
// The bursty profile covers the two-stage path no built-in profile takes.
func TestGenerateGolden(t *testing.T) {
	bursty := tiny()
	bursty.Burstiness = 3
	cases := []struct {
		name string
		p    Profile
		want uint64
	}{
		{"TREC123x0.05", Scaled(TREC123(), 0.05), 0x228d285e390a7c60},
		{"tiny-bursty", bursty, 0x41d67cf9842fcc0e},
	}
	for _, c := range cases {
		if got := generatedDigest(c.p.MustGenerate()); got != c.want {
			t.Errorf("%s: digest %#x, want %#x", c.name, got, c.want)
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

// TestGenerateHeapPerTextByte: the documents Generate returns hold their
// text at its size, not at the capacity a growing builder left behind.
func TestGenerateHeapPerTextByte(t *testing.T) {
	p := CACM()
	p.Docs = 2000
	before := liveHeap()
	docs := p.MustGenerate()
	grown := liveHeap() - before
	var text int
	for _, d := range docs {
		text += len(d.Title) + len(d.Text)
	}
	ratio := float64(grown) / float64(text)
	t.Logf("%d documents, %d text bytes, %d live heap bytes: %.3f per text byte", len(docs), text, grown, ratio)
	if ratio >= 1.15 {
		t.Errorf("live heap is %.3f× the generated text, want < 1.15", ratio)
	}
	runtime.KeepAlive(docs)
}
