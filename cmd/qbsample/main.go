// Command qbsample learns a language model for a text database by
// query-based sampling and writes it out.
//
// The database can be one of the built-in corpora (-corpus) or any remote
// netsearch server (-addr), in which case qbsample demonstrates the
// paper's premise: no cooperation beyond "run query, fetch document" is
// needed.
//
// Usage:
//
//	qbsample -corpus CACM [-docs 300] [-per-query 4] [-strategy random-llm]
//	         [-seed 1] [-scale 1] [-out lm.json] [-tsv] [-converge 0.005]
//	qbsample -addr 127.0.0.1:7070 [-first apple] [-docs 300] [-timeout 10s] [-retries 3] ...
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/langmodel"
	"repro/internal/metrics"
	"repro/internal/netsearch"
)

func main() {
	corpusName := flag.String("corpus", "", "built-in corpus to sample (CACM, WSJ88, TREC123, Support)")
	addr := flag.String("addr", "", "remote netsearch database address (alternative to -corpus)")
	first := flag.String("first", "", "initial query term (default: drawn from the corpus's own model with -corpus, from the built-in seed words with -addr)")
	docs := flag.Int("docs", 300, "document budget")
	perQuery := flag.Int("per-query", 4, "documents examined per query (N)")
	strategy := flag.String("strategy", "random-llm", "term selection: random-llm, df-llm, ctf-llm, avg-tf-llm")
	seed := flag.Uint64("seed", 1, "sampling seed")
	scale := flag.Float64("scale", 1.0, "built-in corpus size multiplier")
	out := flag.String("out", "", "write learned model JSON to this file")
	tsv := flag.Bool("tsv", false, "dump learned model as TSV to stdout")
	converge := flag.Float64("converge", 0, "stop when rdiff over two 50-doc spans falls below this (0 = fixed budget)")
	verbose := flag.Bool("verbose", false, "trace every query to stderr")
	timeout := flag.Duration("timeout", 10*time.Second, "per-operation deadline for -addr databases (0 = none)")
	retries := flag.Int("retries", netsearch.DefaultAttempts, "attempts per remote operation, redialing with backoff in between (1 = no retry)")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "qbsample: "+format+"\n", args...)
		os.Exit(1)
	}

	var sel core.TermSelector
	switch *strategy {
	case "random-llm":
		sel = core.RandomLLM{}
	case "df-llm":
		sel = core.FrequencyLLM{Metric: langmodel.ByDF}
	case "ctf-llm":
		sel = core.FrequencyLLM{Metric: langmodel.ByCTF}
	case "avg-tf-llm":
		sel = core.FrequencyLLM{Metric: langmodel.ByAvgTF}
	default:
		fail("unknown strategy %q", *strategy)
	}

	cfg := core.Config{
		DocsPerQuery:  *perQuery,
		Selector:      sel,
		Analyzer:      analysis.Raw(),
		SnapshotEvery: 50,
		Seed:          *seed,
	}
	if *verbose {
		cfg.OnQuery = func(e core.Event) {
			fmt.Fprintf(os.Stderr, "q%-4d %-20s hits=%d new=%d docs=%d vocab=%d\n",
				e.TotalQueries, e.Query, e.Hits, e.NewDocs, e.TotalDocs, e.VocabSize)
		}
	}
	cfg.Stop = core.StopAfterDocs(*docs)
	if *converge > 0 {
		cfg.Stop = core.StopAny(
			core.StopWhenConverged(*converge, 2, langmodel.ByDF),
			core.StopAfterDocs(*docs),
		)
	}

	var db core.Database
	var env *experiments.Env
	switch {
	case *addr != "" && *corpusName != "":
		fail("-corpus and -addr are mutually exclusive")
	case *addr != "":
		client, err := netsearch.DialWith(*addr, netsearch.Options{
			Timeout: *timeout,
			Retry:   netsearch.RetryPolicy{Attempts: *retries, Seed: *seed},
		})
		if err != nil {
			fail("%v", err)
		}
		defer client.Close()
		db = client
		cfg.InitialTerm = *first
	case *corpusName != "":
		suite := experiments.NewSuite(*scale, *seed)
		suite.InitialFromTREC = false
		var err error
		env, err = suite.Env(*corpusName)
		if err != nil {
			fail("%v", err)
		}
		db = env.Index
		if *first != "" {
			cfg.InitialTerm = *first
		} else {
			cfg.InitialModel = env.Actual
		}
	default:
		fail("need -corpus or -addr")
	}

	res, err := core.Sample(db, cfg)
	if err != nil {
		fail("%v", err)
	}

	fmt.Fprintf(os.Stderr, "sampled %d documents with %d queries (%d failed, %d yielded nothing new)\n",
		res.Docs, res.Queries, res.FailedQueries, res.ZeroNewQueries)
	fmt.Fprintf(os.Stderr, "learned model: %d terms, %d occurrences\n",
		res.Learned.VocabSize(), res.Learned.TotalCTF())
	if res.Exhausted {
		fmt.Fprintln(os.Stderr, "note: sampling exhausted the database before the stop condition")
	}

	if env != nil {
		norm := res.Learned.Normalize(env.Index.Analyzer())
		fmt.Fprintf(os.Stderr, "accuracy vs actual model: pct-learned=%.4f ctf-ratio=%.4f spearman=%.4f\n",
			metrics.PercentageLearned(norm, env.Actual),
			metrics.CtfRatio(norm, env.Actual),
			metrics.Spearman(norm, env.Actual, langmodel.ByDF))
	}

	if *out != "" {
		if err := res.Learned.Save(*out); err != nil {
			fail("%v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
	if *tsv {
		if err := res.Learned.DumpTSV(os.Stdout); err != nil {
			fail("%v", err)
		}
	}
}
