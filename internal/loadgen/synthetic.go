// Package loadgen holds the synthetic federation the benchmark is built
// from: SyntheticModels, the seeded model generator behind all four
// BENCHMARK.json workloads (benchmark/bench/inputs.go) and the cluster
// chaos suite. It is what is left of the in-process load harness; the
// name and import path stay because benchmark/ imports them.
package loadgen

import (
	"fmt"

	"repro/internal/langmodel"
	"repro/internal/randx"
)

// SyntheticModels builds n database models over a shared word pool, the
// shape of a production selection service's model set (the same idiom as
// the repo benchmarks: per-model document counts, vocabulary sizes, and
// document frequencies all drawn from one seeded stream).
func SyntheticModels(n int, seed uint64) ([]*langmodel.Model, []string) {
	const pool = 4000
	words := make([]string, pool)
	for i := range words {
		words[i] = fmt.Sprintf("w%04d", i)
	}
	src := randx.New(seed)
	models := make([]*langmodel.Model, n)
	for i := range models {
		m := langmodel.New()
		m.SetDocs(500 + src.Intn(5000))
		terms := 500 + src.Intn(1000)
		for _, j := range src.Perm(pool)[:terms] {
			df := 1 + src.Intn(400)
			m.AddTerm(words[j], langmodel.TermStats{DF: df, CTF: int64(df * (1 + src.Intn(4)))})
		}
		models[i] = m
	}
	return models, words
}
