// Package repro reproduces "Automatic Discovery of Language Models for
// Text Databases" (Callan, Connell & Du, SIGMOD 1999): query-based
// sampling as a way for a database-selection service to learn a language
// model of any searchable text database without its cooperation.
//
// The library lives under internal/ (this module is the application):
//
//   - internal/core       — query-based sampling (the paper's contribution)
//   - internal/index      — inverted-index retrieval engine (INQUERY-style)
//   - internal/analysis   — tokenizer, 418-word stoplist, Porter stemmer
//   - internal/corpus     — synthetic CACM / WSJ88 / TREC-123 / Support corpora
//   - internal/langmodel  — df/ctf language models
//   - internal/metrics    — pct-learned, ctf ratio, Spearman, rdiff, tau
//   - internal/selection  — CORI and GlOSS database selection
//   - internal/starts     — cooperative (STARTS) baseline: refusers, liars
//   - internal/netsearch  — TCP search substrate (remote sampling)
//   - internal/summarize  — §7 database-content summaries
//   - internal/experiments— every table/figure of the paper, reproduced
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for paper-vs-measured results. bench_test.go in this
// directory regenerates each table and figure as a Go benchmark.
package repro
