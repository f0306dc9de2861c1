// Package selection implements content-based database selection — the
// downstream consumer that language models exist to serve (§1, §2). Given a
// query and one language model per database, a selection algorithm ranks
// the databases by how likely each is to satisfy the query.
//
// Two published algorithm families are provided:
//
//   - CORI (Callan, Lu & Croft, SIGIR 1995) — the INQUERY-style belief
//     ranking the paper's group used. Term belief is 0.4 + 0.6·T·I with a
//     df-based T component and an icf-based I component.
//   - GlOSS (Gravano, García-Molina & Tomasic) — the estimator-based
//     ranking the paper cites as its lead example. Both the Sum goodness
//     estimator and the independence (Ind) matching-document estimator are
//     implemented.
//
// The extension experiment (EXPERIMENTS.md, ext-agree) replaces actual
// models with sampled models and measures how much the database ranking
// moves — the open question the paper poses in §5.
package selection

import (
	"math"
	"sort"
	"strconv"

	"repro/internal/langmodel"
)

// Algorithm ranks databases for a query given their language models.
type Algorithm interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Scores returns one goodness score per database, parallel to models.
	// Query terms must already be normalized to the models' conventions.
	Scores(query []string, models []*langmodel.Model) []float64
}

// Ranked is one database in a selection ranking.
type Ranked struct {
	// DB is the caller's index for the database (position in the models
	// slice handed to Rank).
	DB int
	// Score is the algorithm's goodness value.
	Score float64
}

// Rank scores every database and returns them best first, ties broken by
// database index for determinism.
func Rank(alg Algorithm, query []string, models []*langmodel.Model) []Ranked {
	scores := alg.Scores(query, models)
	out := make([]Ranked, len(scores))
	for i, s := range scores {
		out[i] = Ranked{DB: i, Score: s}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].DB < out[j].DB
	})
	return out
}

// CORI implements the CORI database-ranking function. The zero value uses
// the published constants.
type CORI struct {
	// B is the minimum belief (default 0.4).
	B float64
	// K0 and K1 parameterize the T component denominator
	// df + K0 + K1·cw/avg_cw (defaults 50 and 150).
	K0, K1 float64
}

// Name implements Algorithm.
func (CORI) Name() string { return "cori" }

// Scores implements Algorithm. For each database i and query term t:
//
//	T = df_{t,i} / (df_{t,i} + K0 + K1·cw_i/avg_cw)
//	I = log((|DB| + 0.5) / cf_t) / log(|DB| + 1.0)
//	belief_i(t) = B + (1-B)·T·I
//
// and the database score is the mean belief over query terms. cw_i is the
// total term count of database i; cf_t is the number of databases whose
// model contains t.
func (c CORI) Scores(query []string, models []*langmodel.Model) []float64 {
	b, k0, k1 := c.B, c.K0, c.K1
	if b == 0 {
		b = 0.4
	}
	if k0 == 0 {
		k0 = 50
	}
	if k1 == 0 {
		k1 = 150
	}
	n := len(models)
	scores := make([]float64, n)
	if n == 0 || len(query) == 0 {
		return scores
	}

	var sumCW int64
	for _, m := range models {
		sumCW += m.TotalCTF()
	}
	avg := avgCW(sumCW, n)

	for _, t := range query {
		cf := 0
		for _, m := range models {
			if m.Contains(t) {
				cf++
			}
		}
		idf := rowIDF(n, cf)
		for i, m := range models {
			df := float64(m.DF(t))
			tcomp := df / (df + k0 + k1*float64(m.TotalCTF())/avg)
			scores[i] += b + (1-b)*tcomp*idf
		}
	}
	for i := range scores {
		scores[i] /= float64(len(query))
	}
	return scores
}

// avgCW is CORI's avg_cw: the mean collection size of n databases whose
// sizes sum to sumCW, floored at 1 so an empty federation divides safely.
// The sum is an exact integer, so its value does not depend on the order
// the databases were added in.
func avgCW(sumCW int64, n int) float64 {
	if n == 0 || sumCW == 0 {
		return 1
	}
	return float64(sumCW) / float64(n)
}

// rowIDF is the CORI I component of a term held by cf of n databases. A
// term no database holds gets 0: its belief is B everywhere.
func rowIDF(n, cf int) float64 {
	if cf == 0 {
		return 0
	}
	return math.Log((float64(n)+0.5)/float64(cf)) / math.Log(float64(n)+1.0)
}

// GlossEstimator selects the GlOSS scoring estimator.
type GlossEstimator int

const (
	// GlossSum scores a database by the sum over query terms of
	// df_t/docs_i — the expected number of term matches per document,
	// Gravano et al.'s vector-space goodness under the high-correlation
	// scenario.
	GlossSum GlossEstimator = iota
	// GlossInd estimates the number of documents matching *all* query
	// terms under term independence: docs_i · Π_t df_{t,i}/docs_i.
	GlossInd
)

// Gloss implements the GlOSS family.
type Gloss struct {
	// Estimator picks Sum (default) or Ind.
	Estimator GlossEstimator
	// Threshold is GlOSS's l parameter (Gravano et al.'s Sum(l)/Max(l)
	// goodness family): a query term whose df fraction df_t/docs falls
	// below l is treated as zero evidence. The zero value keeps every
	// term, matching the l = 0 estimators above.
	Threshold float64
}

// Name implements Algorithm. The threshold is part of the name — distinct
// thresholds are distinct rankings, and the name keys rank flights.
func (g Gloss) Name() string {
	base := "gloss-sum"
	if g.Estimator == GlossInd {
		base = "gloss-ind"
	}
	if g.Threshold > 0 {
		return base + "@" + strconv.FormatFloat(g.Threshold, 'g', -1, 64)
	}
	return base
}

// Scores implements Algorithm.
func (g Gloss) Scores(query []string, models []*langmodel.Model) []float64 {
	scores := make([]float64, len(models))
	for i, m := range models {
		docs := float64(m.Docs())
		if docs == 0 {
			continue
		}
		switch g.Estimator {
		case GlossInd:
			est := docs
			for _, t := range query {
				frac := float64(m.DF(t)) / docs
				if frac < g.Threshold {
					frac = 0
				}
				est *= frac
			}
			scores[i] = est
		default:
			var sum float64
			for _, t := range query {
				frac := float64(m.DF(t)) / docs
				if frac < g.Threshold {
					frac = 0
				}
				sum += frac
			}
			scores[i] = sum
		}
	}
	return scores
}
