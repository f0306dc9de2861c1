// Benchmarks that regenerate every table and figure of the paper, plus
// the extension and ablation experiments of DESIGN.md. Each benchmark
// times one full experiment at REPRO_BENCH_SCALE of the paper corpus
// sizes (default 0.1; use 1 to run paper-size collections) and reports
// the experiment's headline number as a custom metric.
//
// Run them with:
//
//	go test -bench=. -benchmem
//	REPRO_BENCH_SCALE=1 go test -bench=Table1 -benchtime=1x
package repro

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/index"
	"repro/internal/langmodel"
	"repro/internal/lint"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/netsearch"
	"repro/internal/randx"
	"repro/internal/selection"
	"repro/internal/service"
	"repro/internal/store"
)

var (
	benchOnce sync.Once
	benchBase *experiments.Suite
)

// benchSuite prepares (once) the corpora at the benchmark scale; each
// benchmark gets a fresh Suite sharing those corpora so iterations time
// the experiment, not corpus generation.
func benchSuite(b *testing.B, i int) *experiments.Suite {
	b.Helper()
	benchOnce.Do(func() {
		scale := 0.1
		if env := os.Getenv("REPRO_BENCH_SCALE"); env != "" {
			if f, err := strconv.ParseFloat(env, 64); err == nil && f > 0 {
				scale = f
			}
		}
		benchBase = experiments.NewSuite(scale, 1)
		// Pre-build the three corpora outside any timer.
		for _, name := range experiments.Corpora() {
			if _, err := benchBase.Env(name); err != nil {
				panic(err)
			}
		}
		if _, err := benchBase.Env("Support"); err != nil {
			panic(err)
		}
	})
	return benchBase.WithSharedEnvs(uint64(i + 1))
}

// BenchmarkTable1Corpora regenerates Table 1 (corpus characteristics).
func BenchmarkTable1Corpora(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b, i)
		rows, err := s.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(rows[len(rows)-1].Docs), "trec-docs")
		}
	}
}

// benchBaselines runs the three baseline sampling runs and returns them.
func benchBaselines(b *testing.B, s *experiments.Suite) []*experiments.BaselineRun {
	b.Helper()
	runs := make([]*experiments.BaselineRun, 0, 3)
	for _, name := range experiments.Corpora() {
		run, err := s.Baseline(name)
		if err != nil {
			b.Fatal(err)
		}
		runs = append(runs, run)
	}
	return runs
}

// BenchmarkFigure1aPercentLearned regenerates the Figure 1a curves.
func BenchmarkFigure1aPercentLearned(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs := benchBaselines(b, benchSuite(b, i))
		if i == 0 {
			last := runs[0].Points[len(runs[0].Points)-1]
			b.ReportMetric(last.PctLearned, "cacm-pct-learned")
		}
	}
}

// BenchmarkFigure1bCtfRatio regenerates the Figure 1b curves.
func BenchmarkFigure1bCtfRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs := benchBaselines(b, benchSuite(b, i))
		if i == 0 {
			for _, r := range runs {
				last := r.Points[len(r.Points)-1]
				b.ReportMetric(last.CtfRatio, r.Corpus+"-ctf-ratio")
			}
		}
	}
}

// BenchmarkFigure2Spearman regenerates the Figure 2 curves.
func BenchmarkFigure2Spearman(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs := benchBaselines(b, benchSuite(b, i))
		if i == 0 {
			for _, r := range runs {
				last := r.Points[len(r.Points)-1]
				b.ReportMetric(last.SpearmanSimple, r.Corpus+"-spearman")
			}
		}
	}
}

// BenchmarkTable2DocsPerQuery regenerates Table 2 (documents-per-query
// sweep to an 80% ctf ratio) across all three corpora.
func BenchmarkTable2DocsPerQuery(b *testing.B) {
	ns := []int{1, 2, 4, 6, 8, 10}
	for i := 0; i < b.N; i++ {
		s := benchSuite(b, i)
		for _, name := range experiments.Corpora() {
			rows, err := s.Table2(name, ns)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 && name == "CACM" {
				for _, r := range rows {
					if r.N == 4 {
						b.ReportMetric(float64(r.Docs), "cacm-n4-docs-to-80pct")
					}
				}
			}
		}
	}
}

// BenchmarkFigure3aStrategiesCtf regenerates Figure 3a (ctf ratio by
// query-selection strategy on WSJ88).
func BenchmarkFigure3aStrategiesCtf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs, err := benchSuite(b, i).Strategies("WSJ88")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range runs {
				last := r.Points[len(r.Points)-1]
				b.ReportMetric(last.CtfRatio, r.Strategy+"-ctf")
			}
		}
	}
}

// BenchmarkFigure3bStrategiesSpearman regenerates Figure 3b.
func BenchmarkFigure3bStrategiesSpearman(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs, err := benchSuite(b, i).Strategies("WSJ88")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range runs {
				last := r.Points[len(r.Points)-1]
				b.ReportMetric(last.SpearmanSimple, r.Strategy+"-spearman")
			}
		}
	}
}

// BenchmarkTable3QueryCounts regenerates Table 3 (queries needed per
// strategy to reach the document budget).
func BenchmarkTable3QueryCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs, err := benchSuite(b, i).Strategies("WSJ88")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range runs {
				b.ReportMetric(float64(r.Queries), r.Strategy+"-queries")
			}
		}
	}
}

// BenchmarkFigure4Rdiff regenerates Figure 4 (rdiff between 50-document
// model snapshots).
func BenchmarkFigure4Rdiff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs := benchBaselines(b, benchSuite(b, i))
		if i == 0 {
			for _, r := range runs {
				if len(r.Rdiff) > 0 {
					b.ReportMetric(r.Rdiff[len(r.Rdiff)-1].Rdiff, r.Corpus+"-final-rdiff")
				}
			}
		}
	}
}

// BenchmarkTable4Summary regenerates Table 4 (top avg-tf terms of the
// sampled Support database).
func BenchmarkTable4Summary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchSuite(b, i).Table4(50)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.SeededFound), "seeded-terms-in-top50")
		}
	}
}

// BenchmarkExtSelectionAgreement runs the selection-fidelity extension.
func BenchmarkExtSelectionAgreement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.SelectionAgreement(8, 400, []int{50, 150}, 16, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range results {
				last := r.Points[len(r.Points)-1]
				b.ReportMetric(last.Top3Overlap, r.Algorithm+"-top3-overlap")
			}
		}
	}
}

// BenchmarkExtAdversarial runs the misrepresentation extension.
func BenchmarkExtAdversarial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Adversarial(6, 400, 120, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.LiarRankCooperative), "liar-rank-cooperative")
			b.ReportMetric(float64(res.LiarRankSampled), "liar-rank-sampled")
		}
	}
}

// BenchmarkExtSizeEstimation runs the database-size estimation extension
// (the open problem of §3, solved with capture-recapture and
// sample-resample).
func BenchmarkExtSizeEstimation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := benchSuite(b, i).SizeEstimation(150)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.CaptureRecaptureErr, r.Corpus+"-cr-relerr")
			}
		}
	}
}

// BenchmarkExtStoppingRule runs the rdiff stopping-rule extension.
func BenchmarkExtStoppingRule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := benchSuite(b, i).StoppingRule(0.005)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(float64(r.Docs), r.Corpus+"-stop-docs")
			}
		}
	}
}

// BenchmarkExtSeedVariance runs the seed-robustness extension.
func BenchmarkExtSeedVariance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row, err := benchSuite(b, i).SeedVariance("CACM", 3)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(row.CtfStd, "ctf-std")
		}
	}
}

// --- Ablations (design choices DESIGN.md calls out) ---

// BenchmarkAblationScoring compares learned-model accuracy when the
// *database* ranks with BM25 instead of the INQUERY belief function: the
// sampler must be robust to the database's retrieval model, which it
// cannot observe.
func BenchmarkAblationScoring(b *testing.B) {
	docs := corpus.Scaled(corpus.WSJ88(), 0.1).MustGenerate()
	for _, scoring := range []index.Scoring{index.InQuery, index.BM25} {
		b.Run(scoring.String(), func(b *testing.B) {
			ix := index.Build(docs, analysis.Database(), scoring)
			actual := ix.LanguageModel()
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(actual, 300, uint64(i+1))
				cfg.SnapshotEvery = 0
				res, err := core.Sample(ix, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					norm := res.Learned.Normalize(ix.Analyzer())
					b.ReportMetric(metrics.CtfRatio(norm, actual), "ctf-ratio")
					b.ReportMetric(metrics.Spearman(norm, actual, langmodel.ByDF), "spearman")
				}
			}
		})
	}
}

// BenchmarkAblationLearnedAnalyzer compares building the learned model
// raw (the paper's §4.1 protocol) against stemming+stopping at sampling
// time: the end-state accuracy is equivalent, which is why the paper can
// defer normalization to comparison time.
func BenchmarkAblationLearnedAnalyzer(b *testing.B) {
	docs := corpus.Scaled(corpus.WSJ88(), 0.1).MustGenerate()
	ix := index.Build(docs, analysis.Database(), index.InQuery)
	actual := ix.LanguageModel()
	for _, mode := range []struct {
		name string
		an   analysis.Analyzer
	}{
		{"raw", analysis.Raw()},
		{"stop+stem", analysis.Database()},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(actual, 300, uint64(i+1))
				cfg.Analyzer = mode.an
				cfg.SnapshotEvery = 0
				res, err := core.Sample(ix, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					norm := res.Learned.Normalize(ix.Analyzer())
					b.ReportMetric(metrics.CtfRatio(norm, actual), "ctf-ratio")
				}
			}
		})
	}
}

// BenchmarkSamplerThroughput measures raw sampling speed — documents and
// queries per second against an in-process database, the substrate cost
// floor. The snapshotted sub-run keeps the paper's 50-document metric
// grid, so it prices the copy-on-write Snapshot path too.
func BenchmarkSamplerThroughput(b *testing.B) {
	docs := corpus.Scaled(corpus.WSJ88(), 0.1).MustGenerate()
	ix := index.Build(docs, analysis.Database(), index.InQuery)
	actual := ix.LanguageModel()
	for _, every := range []int{0, 50} {
		name := "snapshots=off"
		if every > 0 {
			name = "snapshots=" + strconv.Itoa(every)
		}
		b.Run(name, func(b *testing.B) {
			totalDocs, totalQueries := 0, 0
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(actual, 200, uint64(i+1))
				cfg.SnapshotEvery = every
				res, err := core.Sample(ix, cfg)
				if err != nil {
					b.Fatal(err)
				}
				totalDocs += res.Docs
				totalQueries += res.Queries
			}
			b.ReportMetric(float64(totalDocs)/b.Elapsed().Seconds(), "docs/s")
			b.ReportMetric(float64(totalQueries)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// BenchmarkSamplerThroughputParallel runs concurrent sampling runs against
// independent prebuilt databases — the worker-pool workload Baselines and
// the strategy matrix fan out, without the experiment bookkeeping. Scale
// GOMAXPROCS (or -cpu) to see how sampling throughput tracks cores.
func BenchmarkSamplerThroughputParallel(b *testing.B) {
	profiles := []corpus.Profile{
		corpus.Scaled(corpus.CACM(), 0.3),
		corpus.Scaled(corpus.WSJ88(), 0.1),
		corpus.Scaled(corpus.TREC123(), 0.02),
	}
	type db struct {
		ix     *index.Index
		actual *langmodel.Model
	}
	dbs := make([]db, len(profiles))
	for i, p := range profiles {
		ix := index.Build(p.MustGenerate(), analysis.Database(), index.InQuery)
		dbs[i] = db{ix: ix, actual: ix.LanguageModel()}
	}
	var iter, docsDone atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := iter.Add(1)
			d := dbs[int(i)%len(dbs)]
			cfg := core.DefaultConfig(d.actual, 200, uint64(i))
			cfg.SnapshotEvery = 0
			res, err := core.Sample(d.ix, cfg)
			if err != nil {
				b.Fatal(err)
			}
			docsDone.Add(int64(res.Docs))
		}
	})
	b.ReportMetric(float64(docsDone.Load())/b.Elapsed().Seconds(), "docs/s")
}

// BenchmarkSuiteBaselines times the full three-corpus baseline sweep
// sequentially and on a 4-worker pool — the headline suite-level speedup
// of the parallel experiment engine. Both arms produce identical results
// (TestBaselinesParallelGolden); only wall clock differs, and only when
// the machine has cores to spare.
func BenchmarkSuiteBaselines(b *testing.B) {
	benchSuite(b, 0) // warm the shared corpora outside the sub-benchmark timers
	for _, workers := range []int{1, 4} {
		b.Run("parallel="+strconv.Itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := benchSuite(b, i)
				s.Parallel = workers
				runs, err := s.Baselines()
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					var docs float64
					for _, run := range runs {
						docs += float64(run.Docs)
					}
					b.ReportMetric(docs/b.Elapsed().Seconds(), "docs/s")
				}
			}
		})
	}
}

// BenchmarkExtFederated runs the end-to-end federated retrieval
// experiment: centralized vs select-and-merge with actual, sampled, and
// random database selection.
func BenchmarkExtFederated(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.FederatedRetrieval(6, 300, 100, 12, 3, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.PrecisionCentral, "p10-central")
			b.ReportMetric(res.PrecisionSampled, "p10-sampled")
			b.ReportMetric(res.PrecisionRandom, "p10-random")
		}
	}
}

// BenchmarkAblationPruning measures what dropping the df=1 tail of learned
// models costs: model size shrinks by roughly half (half of a text
// vocabulary occurs once, §4.3.1) while ctf coverage barely moves — the
// practical deployment trade for a service indexing many databases.
func BenchmarkAblationPruning(b *testing.B) {
	docs := corpus.Scaled(corpus.WSJ88(), 0.1).MustGenerate()
	ix := index.Build(docs, analysis.Database(), index.InQuery)
	actual := ix.LanguageModel()
	cfg := core.DefaultConfig(actual, 300, 1)
	cfg.SnapshotEvery = 0
	res, err := core.Sample(ix, cfg)
	if err != nil {
		b.Fatal(err)
	}
	learned := res.Learned.Normalize(ix.Analyzer())
	for _, minDF := range []int{1, 2, 3} {
		b.Run("minDF="+strconv.Itoa(minDF), func(b *testing.B) {
			var pruned *langmodel.Model
			for i := 0; i < b.N; i++ {
				pruned = learned.Prune(minDF)
			}
			b.ReportMetric(float64(pruned.VocabSize()), "terms")
			b.ReportMetric(metrics.CtfRatio(pruned, actual), "ctf-ratio")
			b.ReportMetric(metrics.SpearmanSimple(pruned, actual, langmodel.ByDF), "spearman")
		})
	}
}

// --- Serving-path benchmarks (compiled selection snapshots) ---

// rankBenchModels builds n synthetic database models over a shared word
// pool, the shape of a production selection service's model set.
func rankBenchModels(n int) ([]*langmodel.Model, []string) {
	const pool = 8000
	words := make([]string, pool)
	for i := range words {
		words[i] = fmt.Sprintf("w%04d", i)
	}
	src := randx.New(0xbe7c)
	models := make([]*langmodel.Model, n)
	for i := range models {
		m := langmodel.New()
		m.SetDocs(500 + src.Intn(5000))
		terms := 1000 + src.Intn(2000)
		for _, j := range src.Perm(pool)[:terms] {
			df := 1 + src.Intn(400)
			m.AddTerm(words[j], langmodel.TermStats{DF: df, CTF: int64(df * (1 + src.Intn(4)))})
		}
		models[i] = m
	}
	return models, words
}

// BenchmarkRank100DBs prices one ranked selection query against 100
// databases, the serving hot path: the map-based scorers (one hash lookup
// per term per model) versus the compiled snapshot (interned ids, CSR
// postings, pooled buffers). The compiled arm is the ns/op recorded as the
// serving-path regression gate.
func BenchmarkRank100DBs(b *testing.B) {
	models, words := rankBenchModels(100)
	queries := make([][]string, 16)
	src := randx.New(0x9a3e)
	for i := range queries {
		q := make([]string, 4)
		for j := range q {
			q[j] = words[src.Intn(len(words))]
		}
		queries[i] = q
	}
	algs := []struct {
		name string
		alg  selection.Algorithm
	}{
		{"alg=cori", selection.CORI{}},
		{"alg=gloss-sum", selection.Gloss{Estimator: selection.GlossSum}},
	}
	for _, a := range algs {
		b.Run(a.name+"/path=map", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ranked := selection.Rank(a.alg, queries[i%len(queries)], models)
				if len(ranked) != len(models) {
					b.Fatal("short ranking")
				}
			}
		})
		b.Run(a.name+"/path=compiled", func(b *testing.B) {
			c := selection.Compile(models)
			ids := make([]int32, 0, 8)
			scores := make([]float64, c.NumDBs())
			out := make([]selection.Ranked, 0, c.NumDBs())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ids = c.AppendIDs(ids[:0], queries[i%len(queries)])
				var ok bool
				out, ok = c.RankInto(a.alg, ids, scores, out[:0])
				if !ok || len(out) != len(models) {
					b.Fatal("short ranking")
				}
			}
		})
	}
}

// BenchmarkRankDBs is the compiled scorer's cost curve over federation
// size, on the fixture family the benchmark's workloads are built from
// (loadgen.SyntheticModels) and with their query shape (three terms): a
// top-10 selection and the full ranking at each size, beside the scoring
// they both start with. postings/op is the df-list entries the query's
// terms touch; if cost follows postings the phase=score and k=10 rows grow
// with it, and only k=all pays the n log n of the sort.
func BenchmarkRankDBs(b *testing.B) {
	for _, n := range []int{100, 512, 10000} {
		models, words := loadgen.SyntheticModels(n, 0xbe7c)
		c := selection.Compile(models)
		src := randx.New(0x9a3e)
		queries := make([][]int32, 64)
		var postings int
		for i := range queries {
			q := make([]string, 3)
			for j := range q {
				q[j] = words[src.Intn(len(words))]
				for _, m := range models {
					if m.Contains(q[j]) {
						postings++
					}
				}
			}
			queries[i] = c.AppendIDs(nil, q)
		}
		perQuery := float64(postings) / float64(len(queries))
		alg := selection.CORI{}
		scores := make([]float64, n)
		out := make([]selection.Ranked, 0, n)
		b.Run(fmt.Sprintf("n=%d/phase=score", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !c.ScoreInto(alg, queries[i%len(queries)], scores) {
					b.Fatal("not compiled")
				}
			}
			b.ReportMetric(perQuery, "postings/op")
		})
		for _, k := range []struct {
			name string
			k    int
		}{{"k=10", 10}, {"k=all", 0}} {
			want := k.k
			if want == 0 {
				want = n
			}
			b.Run(fmt.Sprintf("n=%d/%s", n, k.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var ok bool
					out, ok = c.RankTopInto(alg, queries[i%len(queries)], scores, out, k.k)
					if !ok || len(out) != want {
						b.Fatal("short ranking")
					}
				}
				b.ReportMetric(perQuery, "postings/op")
			})
		}
	}
}

// BenchmarkIncrementalRecompile prices rebuilding the compiled snapshot
// after one database of a federation is resampled: the incremental path
// (Patch rewrites the changed rows) against the full recompile it replaces.
// The two patch arms sit on either side of Patch's fold rule. path=patch is
// the dense shape — 100 databases over one shared vocabulary, where one
// model's rows are more than 1/8 of all postings, so every patch folds into
// a fresh base. path=patch-sparse is the shape a refreshing service runs —
// one text-like database among 16 resampled beside 512 dense ones, chained
// so each patch rides on a warm delta — and its cost tracks the changed
// model and the delta, not the federation.
func BenchmarkIncrementalRecompile(b *testing.B) {
	models, _ := rankBenchModels(100)
	base := selection.Compile(models)
	replacement, _ := rankBenchModels(1)
	patches := []selection.ModelPatch{{DB: 42, Old: models[42], New: replacement[0]}}
	b.Run("path=patch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := base.Patch(patches); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("path=patch-sparse", func(b *testing.B) {
		chain := newSparsePatchChain(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			chain.step(b)
		}
	})
	b.Run("path=full", func(b *testing.B) {
		next := append([]*langmodel.Model(nil), models...)
		next[42] = replacement[0]
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if c := selection.Compile(next); c.NumDBs() != len(models) {
				b.Fatal("short compile")
			}
		}
	})
}

// sparsePatchChain is a chain of single-database patches over the sparse
// shape: 512 dense models plus sparseTextDBs text-like ones, each over a
// vocabulary of its own of which a sample always holds the frequent head
// and a different part of the long tail (rank j with probability 300/j,
// about 1100 terms), plus sparseFreshTerms terms no earlier sample held —
// a re-sample of a text database keeps meeting words its model has never
// seen. Every step resamples the next text database round robin and
// patches the previous step's snapshot. Samples are drawn ahead in batches
// outside the benchmark's timer, so a step times Patch and nothing else.
type sparsePatchChain struct {
	models []*langmodel.Model
	snap   *selection.Compiled
	src    *randx.Source
	queue  []*langmodel.Model // the next steps' samples, in step order
	drawn  int                // samples drawn so far
	steps  int
}

const (
	sparseDenseDBs = 512
	sparseTextDBs  = 16
	// sparseFreshTerms is how many terms new to the snapshot a resample
	// brings, about what a refreshing service's patches intern.
	sparseFreshTerms = 240
)

func newSparsePatchChain(tb testing.TB) *sparsePatchChain {
	models, _ := rankBenchModels(sparseDenseDBs)
	c := &sparsePatchChain{src: randx.New(0x7e87)}
	c.draw(sparseTextDBs)
	models = append(models, c.queue...)
	c.queue = c.queue[:0]
	c.models, c.snap = models, selection.Compile(models)
	for c.steps < sparseTextDBs { // warm the delta: one resample of each
		c.step(tb)
	}
	return c
}

// draw queues the samples of the next n steps.
func (c *sparsePatchChain) draw(n int) {
	for ; n > 0; n-- {
		i := c.drawn % sparseTextDBs
		m := langmodel.New()
		m.SetDocs(100)
		add := func(term string) {
			df := 1 + c.src.Intn(40)
			m.AddTerm(term, langmodel.TermStats{DF: df, CTF: int64(df * (1 + c.src.Intn(4)))})
		}
		for j := 0; j < 4000; j++ {
			if c.src.Intn(j+1) < 300 {
				add(fmt.Sprintf("x%02d-%04d", i, j))
			}
		}
		for j := 0; j < sparseFreshTerms; j++ {
			add(fmt.Sprintf("x%02d-n%d-%d", i, c.drawn, j))
		}
		c.queue = append(c.queue, m)
		c.drawn++
	}
}

func (c *sparsePatchChain) step(tb testing.TB) {
	if len(c.queue) == 0 {
		if b, ok := tb.(*testing.B); ok {
			b.StopTimer()
			c.draw(64)
			b.StartTimer()
		} else {
			c.draw(64)
		}
	}
	db := sparseDenseDBs + c.steps%sparseTextDBs
	next := c.queue[0]
	c.queue = c.queue[1:]
	snap, err := c.snap.Patch([]selection.ModelPatch{{DB: db, Old: c.models[db], New: next}})
	if err != nil {
		tb.Fatal(err)
	}
	c.models[db], c.snap = next, snap
	c.steps++
}

// TestSparsePatchAllocatesLittle guards the point of the delta: a sparse
// 1-of-N patch must not copy the snapshot. Its allocation is held under
// 15% of the bytes the snapshot's postings occupy (12 per posting), so a
// whole-table copy cannot creep back unnoticed.
func TestSparsePatchAllocatesLittle(t *testing.T) {
	chain := newSparsePatchChain(t)
	const runs = 2 * sparseTextDBs
	chain.draw(runs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		chain.step(t)
	}
	runtime.ReadMemStats(&after)
	perPatch := float64(after.TotalAlloc-before.TotalAlloc) / runs
	postingBytes := 12 * float64(chain.snap.Postings())
	t.Logf("%.0f B per patch beside %.0f B of postings (%.1f%%)", perPatch, postingBytes, 100*perPatch/postingBytes)
	if perPatch > 0.15*postingBytes {
		t.Fatalf("a sparse patch allocates %.0f B, over 15%% of the snapshot's %.0f posting bytes", perPatch, postingBytes)
	}
}

// BenchmarkRepolintFullRepo prices the lint gate itself: loading,
// type-checking, and running every analyzer (CFG construction,
// dataflow fixpoints and the call graph's may-block fixpoint included)
// over every package in the module — the wall time `make lint` adds to CI. One op
// is one cold end-to-end run; load+check dominates, so this also guards
// the stdlib loader against accidental quadratic re-parsing.
func BenchmarkRepolintFullRepo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		loader, err := lint.NewLoader(".")
		if err != nil {
			b.Fatal(err)
		}
		pkgs, err := loader.Load("./...")
		if err != nil {
			b.Fatal(err)
		}
		diags, err := lint.Run(pkgs, lint.All())
		if err != nil {
			b.Fatal(err)
		}
		if findings := lint.Unsuppressed(diags); len(findings) > 0 {
			b.Fatalf("repo must lint clean during the benchmark, got %d finding(s); first: %s",
				len(findings), findings[0])
		}
		if i == 0 {
			b.ReportMetric(float64(len(pkgs)), "packages")
			b.ReportMetric(float64(len(diags)), "suppressed")
		}
	}
}

// BenchmarkTokenizeASCII prices the zero-allocation tokenizer fast path:
// lower-case ASCII text into a recycled token slice.
func BenchmarkTokenizeASCII(b *testing.B) {
	text := ""
	for i := 0; i < 20; i++ {
		text += "the quick brown fox jumps over the lazy dog near the riverbank today "
	}
	dst := make([]string, 0, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = analysis.AppendTokens(dst[:0], text)
		if len(dst) == 0 {
			b.Fatal("no tokens")
		}
	}
}

// BenchmarkScatterGather prices one federated rank query through the
// cluster front tier: scatter to 4 in-process shards over loopback TCP,
// gather the partial rankings, and fuse them into one top-k.
// BenchmarkRank100DBs is the single-process floor for the same model
// set; the delta is the fabric-plus-fusion tax of going sharded.
func BenchmarkScatterGather(b *testing.B) {
	const nDBs, nShards = 100, 4
	models, words := rankBenchModels(nDBs)
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, nDBs)
	for i, m := range models {
		names[i] = fmt.Sprintf("db-%03d", i)
		if err := st.Put(names[i], m); err != nil {
			b.Fatal(err)
		}
	}
	// Each shard registers its ring-assigned share of the databases and
	// loads their models from the shared store — the restart path, so no
	// sampling runs inside the benchmark.
	ring := cluster.NewRing(nShards, 0, 0)
	addrs := make([][]string, nShards)
	for s := 0; s < nShards; s++ {
		svc := service.New(analysis.Database(), st)
		defer svc.Close()
		srv, err := cluster.ServeShard(svc, "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		addrs[s] = []string{srv.Addr()}
		for _, name := range names {
			if ring.Owner(name) != s {
				continue
			}
			if err := svc.Register(name, "bench.invalid:0"); err != nil {
				b.Fatal(err)
			}
		}
	}
	front, err := cluster.NewFront(addrs, cluster.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer front.Close()

	queries := make([]string, 16)
	src := randx.New(0x9a3e)
	for i := range queries {
		q := make([]string, 4)
		for j := range q {
			q[j] = words[src.Intn(len(words))]
		}
		queries[i] = strings.Join(q, " ")
	}
	// One warm query dials every shard and compiles their snapshots.
	if _, err := front.Rank(queries[0], "cori", 10, ""); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ranked, err := front.Rank(queries[i%len(queries)], "cori", 10, "")
		if err != nil {
			b.Fatal(err)
		}
		if len(ranked) != 10 {
			b.Fatal("short ranking")
		}
	}
}

// BenchmarkBatchRank prices the batch rank API against the N sequential
// ranks it replaces, on a warm 100-database service. The batch arm pays
// for algorithm parsing, snapshot acquisition, and scratch checkout once
// per 32 queries instead of once per query; both arms rank the same 32
// queries per op, so ns/op is directly comparable.
func BenchmarkBatchRank(b *testing.B) {
	const nQueries = 32
	models, words := rankBenchModels(100)
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	for i, m := range models {
		if err := st.Put(fmt.Sprintf("db-%03d", i), m); err != nil {
			b.Fatal(err)
		}
	}
	svc := service.New(analysis.Database(), st)
	defer svc.Close()
	for i := range models {
		if err := svc.Register(fmt.Sprintf("db-%03d", i), "bench.invalid:0"); err != nil {
			b.Fatal(err)
		}
	}
	queries := make([]string, nQueries)
	src := randx.New(0x9a3e)
	for i := range queries {
		q := make([]string, 4)
		for j := range q {
			q[j] = words[src.Intn(len(words))]
		}
		queries[i] = strings.Join(q, " ")
	}
	// One warm query compiles the snapshot outside the timed region.
	if _, err := svc.Rank(queries[0], "cori", 10); err != nil {
		b.Fatal(err)
	}
	b.Run("path=sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				ranked, err := svc.Rank(q, "cori", 10)
				if err != nil {
					b.Fatal(err)
				}
				if len(ranked) != 10 {
					b.Fatal("short ranking")
				}
			}
		}
	})
	b.Run("path=batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			items, err := svc.RankBatch(queries, "cori", 10)
			if err != nil {
				b.Fatal(err)
			}
			if len(items) != nQueries {
				b.Fatal("short batch")
			}
			for _, it := range items {
				if it.Error != "" || len(it.Ranked) != 10 {
					b.Fatal("bad batch item")
				}
			}
		}
	})
}

// BenchmarkSearchScored prices the index's dense-accumulator ranked search
// on both topN regimes: selecting a few of many (the sampler's n=4) and a
// full ranking (n >= all hits), which must not regress now that topN is
// the only sort site.
func BenchmarkSearchScored(b *testing.B) {
	docs := corpus.Scaled(corpus.CACM(), 0.5).MustGenerate()
	ix := index.Build(docs, analysis.Database(), index.InQuery)
	query := "system data language program time"
	for _, arm := range []struct {
		name string
		n    int
	}{
		{"n=4", 4},
		{"n=all", ix.NumDocs()},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hits, err := ix.SearchScored(query, arm.n)
				if err != nil {
					b.Fatal(err)
				}
				if len(hits) == 0 {
					b.Fatal("no hits")
				}
			}
		})
	}
}

// warmRankService returns a service over n synthetic models loaded warm
// from a store (no sampling inside a benchmark), its snapshot compiled,
// and the vocabulary the models draw from.
func warmRankService(b *testing.B, n int) (*service.Service, []string) {
	b.Helper()
	models, words := rankBenchModels(n)
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	svc := service.New(analysis.Database(), st)
	b.Cleanup(func() { svc.Close() })
	for i, m := range models {
		name := fmt.Sprintf("db-%03d", i)
		if err := st.Put(name, m); err != nil {
			b.Fatal(err)
		}
		if err := svc.Register(name, "bench.invalid:0"); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := svc.Rank(words[0], "cori", 10); err != nil {
		b.Fatal(err)
	}
	return svc, words
}

// uniqueQuery is the i-th of a sequence of three-term queries that does
// not repeat before len(words)² of them.
func uniqueQuery(words []string, i int, sep string) string {
	n := len(words)
	return words[i%n] + sep + words[(i/n)%n] + sep + words[(i+n/2)%n]
}

// sinkWriter is the in-memory http.ResponseWriter of BenchmarkHTTPRank:
// it keeps the status and the byte count and allocates nothing per
// request, so allocs/op is the handler's own.
type sinkWriter struct {
	header http.Header
	status int
	bytes  int
}

func (w *sinkWriter) Header() http.Header  { return w.header }
func (w *sinkWriter) WriteHeader(code int) { w.status = code }
func (w *sinkWriter) Write(p []byte) (int, error) {
	w.bytes += len(p)
	return len(p), nil
}

// BenchmarkHTTPRank prices one GET /rank through the service's HTTP
// handler — middleware, admission (off), query parsing, analysis, a
// flight of one, scoring, JSON encoding — with no socket: the in-process
// twin of the benchmark's rank_uniq workload, and the fast local check
// on its allocs-per-query budget. Queries never repeat.
func BenchmarkHTTPRank(b *testing.B) {
	svc, words := warmRankService(b, 100)
	h := svc.Handler()
	req := httptest.NewRequest(http.MethodGet, "/rank", nil)
	w := &sinkWriter{header: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.URL.RawQuery = "q=" + uniqueQuery(words, i, "+") + "&alg=cori&k=10"
		clear(w.header)
		w.status, w.bytes = http.StatusOK, 0
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK || w.bytes == 0 {
			b.Fatalf("GET /rank?%s: status %d, %d bytes", req.URL.RawQuery, w.status, w.bytes)
		}
	}
}

// BenchmarkWireRoundTrip prices one single-query rank exchange on the
// netsearch fabric: a client's RankDBs against a loopback ServeShard over
// a 100-database service: every call encodes, crosses the socket, ranks
// and decodes.
func BenchmarkWireRoundTrip(b *testing.B) {
	svc, words := warmRankService(b, 100)
	srv, err := cluster.ServeShard(svc, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client, err := netsearch.DialWith(srv.Addr(), netsearch.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ranked, err := client.RankDBs(uniqueQuery(words, i, " "), "cori", 10, "")
		if err != nil {
			b.Fatal(err)
		}
		if len(ranked) != 10 {
			b.Fatal("short ranking")
		}
	}
}

// BenchmarkWireSample prices the write path's unit of work: one
// 100-document query-based sample (the paper's four documents per query,
// random terms from the learned model, no snapshots) taken through a
// netsearch client from a loopback netsearch.Serve over one database of an
// experiments.Federation. It pays for everything a re-sample pays for —
// the probe queries and fetch groups on the wire, the database's search
// and stemming, tokenizing and folding each document into the learned
// model — so docs/s here is what a freshness scheduler's probe budget buys.
func BenchmarkWireSample(b *testing.B) {
	dbs, err := experiments.Federation(1, 600, 5)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := netsearch.Serve(dbs[0].Index, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client, err := netsearch.DialWith(srv.Addr(), netsearch.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	docs := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig(dbs[0].Actual, 100, uint64(i+1))
		cfg.SnapshotEvery = 0
		res, err := core.Sample(client, cfg)
		if err != nil {
			b.Fatal(err)
		}
		docs += res.Docs
	}
	b.ReportMetric(float64(docs)/b.Elapsed().Seconds(), "docs/s")
}
