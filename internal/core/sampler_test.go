package core

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/langmodel"
	"repro/internal/metrics"
	"repro/internal/randx"
)

// testProfile returns a small but non-trivial corpus for sampler tests.
func testProfile(docs int, seed uint64) corpus.Profile {
	return corpus.Profile{
		Name:            "sampletest",
		Docs:            docs,
		SharedVocabSize: 800,
		SharedProb:      0.5,
		Topics: []corpus.TopicSpec{
			{Name: "alpha", VocabSize: 3000, Weight: 1},
			{Name: "beta", VocabSize: 3000, Weight: 1},
		},
		DocLenMu:    4.0,
		DocLenSigma: 0.5,
		MinDocLen:   10,
		ZipfS:       1.35,
		ZipfV:       2,
		MorphProb:   0.1,
		Seed:        seed,
	}
}

func testDB(t testing.TB, docs int) (*index.Index, *langmodel.Model) {
	t.Helper()
	cdocs, err := testProfile(docs, 7).Generate()
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(cdocs, analysis.Database(), index.InQuery)
	return ix, ix.LanguageModel()
}

func TestSampleReachesStopCondition(t *testing.T) {
	ix, actual := testDB(t, 400)
	cfg := DefaultConfig(actual, 100, 11)
	res, err := Sample(ix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Docs < 100 {
		t.Errorf("sampled %d docs, want >= 100", res.Docs)
	}
	if res.Exhausted {
		t.Error("run reported exhausted")
	}
	if res.Learned.Docs() != res.Docs {
		t.Errorf("learned model docs %d != result docs %d", res.Learned.Docs(), res.Docs)
	}
	if res.Queries == 0 {
		t.Error("no queries issued")
	}
}

func TestSampleDeterministic(t *testing.T) {
	ix, actual := testDB(t, 300)
	cfg := DefaultConfig(actual, 80, 42)
	a, err := Sample(ix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sample(ix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Queries != b.Queries || a.Docs != b.Docs {
		t.Fatalf("runs differ: %d/%d queries, %d/%d docs", a.Queries, b.Queries, a.Docs, b.Docs)
	}
	if !a.Learned.Equal(b.Learned) {
		t.Error("learned models differ across identical runs")
	}
}

func TestSampleSeedMatters(t *testing.T) {
	ix, actual := testDB(t, 300)
	a, err := Sample(ix, DefaultConfig(actual, 80, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sample(ix, DefaultConfig(actual, 80, 2))
	if err != nil {
		t.Fatal(err)
	}
	if a.Learned.Equal(b.Learned) {
		t.Error("different seeds produced identical samples (suspicious)")
	}
}

func TestSampleLearnsAccurateModel(t *testing.T) {
	// The headline claim: a modest sample covers most term occurrences.
	ix, actual := testDB(t, 500)
	res, err := Sample(ix, DefaultConfig(actual, 150, 3))
	if err != nil {
		t.Fatal(err)
	}
	learned := res.Learned.Normalize(analysis.Database())
	if r := metrics.CtfRatio(learned, actual); r < 0.6 {
		t.Errorf("ctf ratio after 150/500 docs = %f, want > 0.6", r)
	}
	if s := metrics.Spearman(learned, actual, langmodel.ByDF); s < 0.3 {
		t.Errorf("Spearman after 150/500 docs = %f, want > 0.3", s)
	}
}

func TestSampleSnapshots(t *testing.T) {
	ix, actual := testDB(t, 300)
	cfg := DefaultConfig(actual, 120, 5)
	cfg.SnapshotEvery = 50
	res, err := Sample(ix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Snapshots) < 2 {
		t.Fatalf("got %d snapshots, want >= 2", len(res.Snapshots))
	}
	for i, s := range res.Snapshots {
		if s.Docs < 50*(i+1) {
			t.Errorf("snapshot %d at %d docs, want >= %d", i, s.Docs, 50*(i+1))
		}
		if s.Model.Docs() != s.Docs {
			t.Errorf("snapshot %d model docs %d != %d", i, s.Model.Docs(), s.Docs)
		}
		if i > 0 && res.Snapshots[i-1].Docs >= s.Docs {
			t.Error("snapshots not increasing")
		}
	}
	// Snapshots must be frozen copies: the final model has more docs.
	if res.Snapshots[0].Model.Docs() >= res.Learned.Docs() {
		t.Error("early snapshot not frozen")
	}
}

func TestSampleDocsPerQueryLimitsYield(t *testing.T) {
	ix, actual := testDB(t, 300)
	cfg := DefaultConfig(actual, 60, 9)
	cfg.DocsPerQuery = 2
	res, err := Sample(ix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Docs > res.Queries*2 {
		t.Errorf("%d docs from %d queries at N=2", res.Docs, res.Queries)
	}
}

func TestSampleInitialTerm(t *testing.T) {
	ix, actual := testDB(t, 200)
	first := actual.TopTerms(langmodel.ByDF, 1)[0]
	cfg := DefaultConfig(nil, 20, 1)
	cfg.InitialModel = nil
	cfg.InitialTerm = first
	res, err := Sample(ix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Docs == 0 {
		t.Error("nothing sampled from explicit initial term")
	}
}

// TestSampleBuiltInSeed: with neither InitialTerm nor InitialModel the
// first probe term comes from the built-in seed model, so the run still
// samples and is a function of the database and Config alone.
func TestSampleBuiltInSeed(t *testing.T) {
	ix, _ := testDB(t, 200)
	cfg := DefaultConfig(nil, 20, 1)
	a, err := Sample(ix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sample(ix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Docs < 20 {
		t.Errorf("sampled %d docs, want >= 20", a.Docs)
	}
	if !seedModel.Contains(a.QueryTerms[0]) {
		t.Errorf("first probe %q is not a built-in seed word", a.QueryTerms[0])
	}
	if a.Learned.Fingerprint() != b.Learned.Fingerprint() {
		t.Error("two runs of one Config learned different models")
	}
}

func TestSampleOLMCountsFailedQueries(t *testing.T) {
	ix, actual := testDB(t, 300)
	// An "other" model full of terms the database does not index.
	other := actual.Clone()
	for i := 0; i < 2000; i++ {
		other.AddTerm("zzqx"+string(rune('a'+i%26))+string(rune('a'+(i/26)%26))+string(rune('a'+(i/676)%26)), langmodel.TermStats{DF: 1, CTF: 1})
	}
	cfg := DefaultConfig(actual, 60, 13)
	cfg.Selector = RandomOLM{Other: other}
	res, err := Sample(ix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedQueries == 0 {
		t.Error("expected failed queries from unknown olm terms")
	}
	// Failed queries inflate the total (Table 3's phenomenon).
	if res.Queries <= res.Docs/cfg.DocsPerQuery {
		t.Errorf("query count %d suspiciously low for %d docs", res.Queries, res.Docs)
	}
}

func TestSampleExhaustsTinyDatabase(t *testing.T) {
	// A database with 3 trivial docs cannot yield 1000 distinct documents;
	// sampling must terminate with Exhausted rather than loop.
	ix := index.Build([]corpus.Document{
		{ID: 0, Text: "apple banana cherry"},
		{ID: 1, Text: "apple date elderberry"},
		{ID: 2, Text: "fig grape apple"},
	}, analysis.Raw(), index.InQuery)
	cfg := Config{
		DocsPerQuery: 4,
		Selector:     RandomLLM{},
		Stop:         StopAfterDocs(1000),
		InitialTerm:  "apple",
		Analyzer:     analysis.Raw(),
		Seed:         1,
	}
	res, err := Sample(ix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted {
		t.Error("expected exhaustion")
	}
	if res.Docs != 3 {
		t.Errorf("sampled %d docs, want 3", res.Docs)
	}
}

func TestSampleMaxQueries(t *testing.T) {
	ix, actual := testDB(t, 300)
	cfg := DefaultConfig(actual, 1000000, 1)
	cfg.MaxQueries = 5
	res, err := Sample(ix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries > 5 {
		t.Errorf("issued %d queries, cap was 5", res.Queries)
	}
	if !res.Exhausted {
		t.Error("hitting MaxQueries should report Exhausted")
	}
}

func TestResumeContinuesSampling(t *testing.T) {
	ix, actual := testDB(t, 500)
	cfg := DefaultConfig(actual, 100, 17)
	first, err := Sample(ix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Docs < 100 {
		t.Fatalf("first run sampled %d docs", first.Docs)
	}

	// Continue to 200 documents. Counters include the first run.
	cfg2 := cfg
	cfg2.Stop = StopAfterDocs(200)
	cfg2.Seed = 18
	second, err := Resume(ix, cfg2, first)
	if err != nil {
		t.Fatal(err)
	}
	if second.Docs < 200 {
		t.Errorf("resumed run reached only %d docs", second.Docs)
	}
	if second.Queries <= first.Queries {
		t.Error("resumed run issued no new queries")
	}
	// No document examined twice.
	seen := map[int]bool{}
	for _, id := range second.DocIDs {
		if seen[id] {
			t.Fatalf("document %d sampled twice across resume", id)
		}
		seen[id] = true
	}
	// No query term reused.
	usedTerms := map[string]bool{}
	for _, q := range second.QueryTerms {
		if usedTerms[q] {
			t.Fatalf("query %q reissued across resume", q)
		}
		usedTerms[q] = true
	}
	// The learned model grew and subsumes the first run's documents.
	if second.Learned.Docs() != second.Docs {
		t.Errorf("learned docs %d != %d", second.Learned.Docs(), second.Docs)
	}
	// prev untouched.
	if first.Docs >= 200 || first.Learned.Docs() >= 200 {
		t.Error("Resume mutated the previous result")
	}

	// Accuracy improves with the bigger sample (the §5 claim).
	normFirst := first.Learned.Normalize(analysis.Database())
	normSecond := second.Learned.Normalize(analysis.Database())
	if metrics.CtfRatio(normSecond, actual) <= metrics.CtfRatio(normFirst, actual) {
		t.Error("continued sampling did not improve ctf ratio")
	}
}

func TestResumeRequiresPrev(t *testing.T) {
	ix, actual := testDB(t, 50)
	if _, err := Resume(ix, DefaultConfig(actual, 10, 1), nil); err == nil {
		t.Error("Resume accepted nil previous result")
	}
}

func TestResumeSnapshotsContinue(t *testing.T) {
	ix, actual := testDB(t, 400)
	cfg := DefaultConfig(actual, 100, 23)
	first, err := Sample(ix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Stop = StopAfterDocs(200)
	second, err := Resume(ix, cfg2, first)
	if err != nil {
		t.Fatal(err)
	}
	if len(second.Snapshots) <= len(first.Snapshots) {
		t.Fatalf("no new snapshots: %d -> %d", len(first.Snapshots), len(second.Snapshots))
	}
	for i := 1; i < len(second.Snapshots); i++ {
		if second.Snapshots[i].Docs <= second.Snapshots[i-1].Docs {
			t.Fatal("snapshot positions not increasing across resume")
		}
	}
}

func TestQueryTermsRecorded(t *testing.T) {
	ix, actual := testDB(t, 100)
	res, err := Sample(ix, DefaultConfig(actual, 30, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.QueryTerms) != res.Queries {
		t.Errorf("%d query terms for %d queries", len(res.QueryTerms), res.Queries)
	}
}

func TestSampleOnQueryTrace(t *testing.T) {
	ix, actual := testDB(t, 200)
	cfg := DefaultConfig(actual, 40, 3)
	var events []Event
	cfg.OnQuery = func(e Event) {
		// Strip the live model pointer before retaining.
		e.Learned = nil
		events = append(events, e)
	}
	res, err := Sample(ix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != res.Queries {
		t.Fatalf("got %d events for %d queries", len(events), res.Queries)
	}
	last := events[len(events)-1]
	if last.TotalDocs != res.Docs || last.TotalQueries != res.Queries {
		t.Errorf("final event counters %+v disagree with result %d/%d",
			last, res.Docs, res.Queries)
	}
	for i, e := range events {
		if e.Query == "" {
			t.Errorf("event %d has empty query", i)
		}
		if e.NewDocs > e.Hits {
			t.Errorf("event %d: new docs %d > hits %d", i, e.NewDocs, e.Hits)
		}
		if i > 0 && e.TotalQueries != events[i-1].TotalQueries+1 {
			t.Errorf("event %d: query counter not monotone", i)
		}
	}
}

func TestSampleConfigValidation(t *testing.T) {
	ix, actual := testDB(t, 50)
	bad := []Config{
		{},
		{DocsPerQuery: 0, Selector: RandomLLM{}, Stop: StopAfterDocs(10), InitialModel: actual},
		{DocsPerQuery: 4, Stop: StopAfterDocs(10), InitialModel: actual},
		{DocsPerQuery: 4, Selector: RandomLLM{}, InitialModel: actual},
		{DocsPerQuery: 4, Selector: RandomLLM{}, Stop: StopAfterDocs(10),
			InitialModel: actual, InitialTerm: "also-set"},
	}
	for i, cfg := range bad {
		if _, err := Sample(ix, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// failDB injects errors.
type failDB struct {
	searchErr error
	fetchErr  error
}

func (f failDB) Search(string, int) ([]int, error) {
	if f.searchErr != nil {
		return nil, f.searchErr
	}
	return []int{0}, nil
}

func (f failDB) Fetch(int) (corpus.Document, error) {
	if f.fetchErr != nil {
		return corpus.Document{}, f.fetchErr
	}
	return corpus.Document{Text: "x"}, nil
}

func TestSamplePropagatesSearchError(t *testing.T) {
	sentinel := errors.New("search down")
	cfg := Config{
		DocsPerQuery: 4, Selector: RandomLLM{}, Stop: StopAfterDocs(10),
		InitialTerm: "apple", Seed: 1,
	}
	_, err := Sample(failDB{searchErr: sentinel}, cfg)
	if !errors.Is(err, sentinel) {
		t.Errorf("got %v, want wrapped sentinel", err)
	}
}

func TestSamplePropagatesFetchError(t *testing.T) {
	sentinel := errors.New("fetch down")
	cfg := Config{
		DocsPerQuery: 4, Selector: RandomLLM{}, Stop: StopAfterDocs(10),
		InitialTerm: "apple", Seed: 1,
	}
	_, err := Sample(failDB{fetchErr: sentinel}, cfg)
	if !errors.Is(err, sentinel) {
		t.Errorf("got %v, want wrapped sentinel", err)
	}
}

func TestEligible(t *testing.T) {
	used := map[string]bool{"taken": true}
	cases := []struct {
		term string
		want bool
	}{
		{"apple", true},
		{"ab", false},    // too short
		{"123", false},   // number
		{"1234", false},  // number
		{"taken", false}, // already used
		{"a1b", true},    // mixed is fine
		{"", false},      // empty
		{"the", true},    // stopwords are eligible query terms (raw LM keeps them)
	}
	for _, c := range cases {
		if got := Eligible(c.term, used); got != c.want {
			t.Errorf("Eligible(%q) = %v, want %v", c.term, got, c.want)
		}
	}
}

func TestRandomLLMNeverReturnsIneligible(t *testing.T) {
	m := langmodel.New()
	m.AddDocument([]string{"apple", "it", "42", "banana", "fig"})
	used := map[string]bool{"apple": true}
	rng := randx.New(5)
	sel := RandomLLM{}
	for i := 0; i < 200; i++ {
		term, ok := sel.Next(m, used, rng)
		if !ok {
			t.Fatal("selector gave up with candidates remaining")
		}
		if !Eligible(term, used) {
			t.Fatalf("selector returned ineligible term %q", term)
		}
	}
}

func TestRandomLLMExhaustion(t *testing.T) {
	m := langmodel.New()
	m.AddDocument([]string{"apple", "banana"})
	used := map[string]bool{"apple": true, "banana": true}
	if _, ok := (RandomLLM{}).Next(m, used, randx.New(1)); ok {
		t.Error("selector should be exhausted")
	}
	if _, ok := (RandomLLM{}).Next(langmodel.New(), nil, randx.New(1)); ok {
		t.Error("empty model should exhaust selector")
	}
}

func TestFrequencyLLMPicksHighest(t *testing.T) {
	m := langmodel.New()
	m.AddTerm("common", langmodel.TermStats{DF: 100, CTF: 200})
	m.AddTerm("middle", langmodel.TermStats{DF: 50, CTF: 500})
	m.AddTerm("rare", langmodel.TermStats{DF: 1, CTF: 1000})
	used := map[string]bool{}
	rng := randx.New(1)

	if term, _ := (FrequencyLLM{Metric: langmodel.ByDF}).Next(m, used, rng); term != "common" {
		t.Errorf("df selector chose %q, want common", term)
	}
	if term, _ := (FrequencyLLM{Metric: langmodel.ByCTF}).Next(m, used, rng); term != "rare" {
		t.Errorf("ctf selector chose %q, want rare", term)
	}
	if term, _ := (FrequencyLLM{Metric: langmodel.ByAvgTF}).Next(m, used, rng); term != "rare" {
		t.Errorf("avg-tf selector chose %q, want rare", term)
	}

	used["common"] = true
	if term, _ := (FrequencyLLM{Metric: langmodel.ByDF}).Next(m, used, rng); term != "middle" {
		t.Errorf("df selector with common used chose %q, want middle", term)
	}
}

func TestFrequencyLLMDeterministicTieBreak(t *testing.T) {
	m := langmodel.New()
	m.AddTerm("zebra", langmodel.TermStats{DF: 5, CTF: 5})
	m.AddTerm("apple", langmodel.TermStats{DF: 5, CTF: 5})
	for i := 0; i < 10; i++ {
		term, _ := (FrequencyLLM{Metric: langmodel.ByDF}).Next(m, map[string]bool{}, randx.New(uint64(i)))
		if term != "apple" {
			t.Fatalf("tie broke to %q, want apple (alphabetical)", term)
		}
	}
}

func TestSelectorNames(t *testing.T) {
	names := map[string]TermSelector{
		"random-llm": RandomLLM{},
		"random-olm": RandomOLM{},
		"df-llm":     FrequencyLLM{Metric: langmodel.ByDF},
		"ctf-llm":    FrequencyLLM{Metric: langmodel.ByCTF},
		"avg-tf-llm": FrequencyLLM{Metric: langmodel.ByAvgTF},
	}
	for want, sel := range names {
		if got := sel.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

func TestStopConditions(t *testing.T) {
	st := &State{Docs: 100, Queries: 25}
	if !StopAfterDocs(100).Done(st) || StopAfterDocs(101).Done(st) {
		t.Error("StopAfterDocs wrong")
	}
	if !StopAfterQueries(25).Done(st) || StopAfterQueries(26).Done(st) {
		t.Error("StopAfterQueries wrong")
	}
	any := StopAny(StopAfterDocs(1000), StopAfterQueries(25))
	if !any.Done(st) {
		t.Error("StopAny should fire on second condition")
	}
	if StopAny().Done(st) {
		t.Error("empty StopAny should never fire")
	}
	if !strings.Contains(any.Name(), "after-25-queries") {
		t.Errorf("StopAny name = %q", any.Name())
	}
}

func TestStopWhenConverged(t *testing.T) {
	mkModel := func(dfs ...int) *langmodel.Model {
		m := langmodel.New()
		for i, df := range dfs {
			m.AddTerm("term"+string(rune('a'+i)), langmodel.TermStats{DF: df, CTF: int64(df)})
		}
		return m
	}
	stable := mkModel(10, 8, 6, 4, 2)
	moved := mkModel(2, 4, 6, 8, 10) // reversed ranking

	// The condition caches its verdict per snapshot count (real runs only
	// grow the snapshot list), so each scenario gets a fresh condition.
	cond := StopWhenConverged(0.01, 2, langmodel.ByDF)
	// Not enough snapshots.
	st := &State{Snapshots: []Snapshot{{Model: stable}}}
	if cond.Done(st) {
		t.Error("fired with one snapshot")
	}
	// Three identical snapshots: rdiff 0 twice -> converged.
	st.Snapshots = []Snapshot{{Model: stable}, {Model: stable.Clone()}, {Model: stable.Clone()}}
	if !cond.Done(st) {
		t.Error("did not fire on identical snapshots")
	}
	// Large movement in the last span -> not converged.
	cond = StopWhenConverged(0.01, 2, langmodel.ByDF)
	st.Snapshots = []Snapshot{{Model: stable}, {Model: stable.Clone()}, {Model: moved}}
	if cond.Done(st) {
		t.Error("fired despite ranking upheaval")
	}
	if !strings.Contains(cond.Name(), "rdiff") {
		t.Errorf("name = %q", cond.Name())
	}
}

func TestStopWhenConvergedEndsRun(t *testing.T) {
	ix, actual := testDB(t, 500)
	cfg := DefaultConfig(actual, 0, 21)
	cfg.Stop = StopAny(
		StopWhenConverged(0.02, 2, langmodel.ByDF),
		StopAfterDocs(450),
	)
	res, err := Sample(ix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Docs == 0 {
		t.Fatal("no docs sampled")
	}
	if res.Exhausted {
		t.Error("converged run reported exhausted")
	}
}

func BenchmarkSample100Docs(b *testing.B) {
	cdocs := testProfile(1000, 7).MustGenerate()
	ix := index.Build(cdocs, analysis.Database(), index.InQuery)
	actual := ix.LanguageModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sample(ix, DefaultConfig(actual, 100, uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// groupDB is a database that also offers BatchFetcher, recording the groups
// it is asked for.
type groupDB struct {
	*index.Index
	groups [][]int
	err    error
}

func (g *groupDB) FetchAll(ids []int) ([]corpus.Document, error) {
	g.groups = append(g.groups, append([]int(nil), ids...))
	if g.err != nil {
		return nil, g.err
	}
	docs := make([]corpus.Document, len(ids))
	for i, id := range ids {
		var err error
		if docs[i], err = g.Index.Fetch(id); err != nil {
			return nil, err
		}
	}
	return docs, nil
}

// TestSampleBatchFetchSameRun: fetching a query's documents in one call is
// an economy of round trips and nothing else. The run over a database with
// FetchAll must be the run over the same database without it — documents in
// the same order, the same queries, every snapshot — and each group must be
// exactly one query's unseen hits.
func TestSampleBatchFetchSameRun(t *testing.T) {
	ix, actual := testDB(t, 400)
	for _, seed := range []uint64{3, 11, 42} {
		cfg := DefaultConfig(actual, 120, seed)
		plain, err := Sample(ix, cfg)
		if err != nil {
			t.Fatal(err)
		}
		gdb := &groupDB{Index: ix}
		grouped, err := Sample(gdb, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !plain.Learned.Equal(grouped.Learned) {
			t.Errorf("seed %d: learned models differ", seed)
		}
		if !slices.Equal(plain.DocIDs, grouped.DocIDs) {
			t.Errorf("seed %d: documents differ:\n%v\n%v", seed, plain.DocIDs, grouped.DocIDs)
		}
		if !slices.Equal(plain.QueryTerms, grouped.QueryTerms) {
			t.Errorf("seed %d: queries differ", seed)
		}
		if plain.Queries != grouped.Queries || plain.FailedQueries != grouped.FailedQueries ||
			plain.ZeroNewQueries != grouped.ZeroNewQueries {
			t.Errorf("seed %d: counters differ: %+v vs %+v", seed, plain, grouped)
		}
		if len(plain.Snapshots) == 0 || len(plain.Snapshots) != len(grouped.Snapshots) {
			t.Fatalf("seed %d: %d vs %d snapshots", seed, len(plain.Snapshots), len(grouped.Snapshots))
		}
		for i, s := range plain.Snapshots {
			g := grouped.Snapshots[i]
			if s.Docs != g.Docs || s.Queries != g.Queries || !s.Model.Equal(g.Model) {
				t.Errorf("seed %d: snapshot %d differs", seed, i)
			}
		}
		var flat []int
		for _, g := range gdb.groups {
			if len(g) == 0 || len(g) > cfg.DocsPerQuery {
				t.Errorf("seed %d: a group of %d for %d documents per query", seed, len(g), cfg.DocsPerQuery)
			}
			flat = append(flat, g...)
		}
		if !slices.Equal(flat, grouped.DocIDs) {
			t.Errorf("seed %d: the groups are not the documents examined, in order", seed)
		}
		if want := grouped.Queries - grouped.FailedQueries - grouped.ZeroNewQueries; len(gdb.groups) != want {
			t.Errorf("seed %d: %d groups for %d queries with new documents", seed, len(gdb.groups), want)
		}
	}
}

func TestSamplePropagatesBatchFetchError(t *testing.T) {
	ix, actual := testDB(t, 100)
	sentinel := errors.New("group down")
	_, err := Sample(&groupDB{Index: ix, err: sentinel}, DefaultConfig(actual, 10, 1))
	if !errors.Is(err, sentinel) {
		t.Errorf("got %v, want wrapped sentinel", err)
	}
}
