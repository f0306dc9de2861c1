package selection

import (
	"cmp"
	"fmt"
	"slices"
)

// Result merging: after selection picks databases and each is searched,
// their per-database result lists must be fused into one ranking. Scores
// from different engines are not directly comparable, so the standard
// CORI-style merge weights each document's score by its database's
// selection score — documents from well-matched databases rise.

// DocScore is one document in a per-database result list.
type DocScore struct {
	// Doc is the database-local document id.
	Doc int
	// Score is the database's own retrieval score for the document.
	Score float64
}

// MergedHit is one row of a fused result list.
type MergedHit struct {
	// DB indexes the database the hit came from (position in the
	// per-database slice handed to MergeWeighted).
	DB int
	// Doc is the database-local document id.
	Doc int
	// Score is the fused score.
	Score float64
}

// MergeWeighted fuses per-database result lists into a single top-k
// ranking, scaling each document's score by its database's selection
// score: fused = docScore · (1 + dbScore) / 2 normalized by the maximum
// database score, the heuristic used by CORI-based federated systems.
// When every selection score is nonpositive (some estimators emit
// negative log-space goodness), the scores are min-max shifted into
// [0, 1] before weighting, so relative database quality still steers the
// merge instead of silently collapsing every weight to 1; all-equal
// scores mean no preference and weight 1 everywhere. Ties break by
// (DB, Doc) for determinism. dbScores must be parallel to results — a
// mismatch is a programmer error and is reported, never swallowed as an
// empty ranking. k <= 0 returns everything.
func MergeWeighted(results [][]DocScore, dbScores []float64, k int) ([]MergedHit, error) {
	return MergeWeightedInto(nil, results, dbScores, k)
}

// MergeWeightedInto is MergeWeighted appending into dst (grown as needed):
// the batch-serving form. A front tier fusing a whole batch of queries
// calls it once per query with the same recycled buffer, so the merge
// allocates per batch instead of per query. The returned slice aliases
// dst's storage; callers that retain results across iterations must copy.
func MergeWeightedInto(dst []MergedHit, results [][]DocScore, dbScores []float64, k int) ([]MergedHit, error) {
	if len(results) != len(dbScores) {
		return nil, fmt.Errorf("selection: MergeWeighted: %d result lists but %d database scores", len(results), len(dbScores))
	}
	merged := dst[:0]
	maxDB, minDB := 0.0, 0.0
	for i, s := range dbScores {
		if i == 0 || s > maxDB {
			maxDB = s
		}
		if i == 0 || s < minDB {
			minDB = s
		}
	}
	for db, list := range results {
		w := 1.0
		switch {
		case maxDB > 0:
			w = (1 + dbScores[db]/maxDB) / 2
		case maxDB > minDB:
			// All scores nonpositive: shift into [0, 1] by range so the
			// best database still gets weight 1 and the worst 1/2.
			w = (1 + (dbScores[db]-minDB)/(maxDB-minDB)) / 2
		}
		for _, h := range list {
			merged = append(merged, MergedHit{DB: db, Doc: h.Doc, Score: h.Score * w})
		}
	}
	slices.SortFunc(merged, func(a, b MergedHit) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		if a.DB != b.DB {
			return cmp.Compare(a.DB, b.DB)
		}
		return cmp.Compare(a.Doc, b.Doc)
	})
	if k > 0 && k < len(merged) {
		merged = merged[:k]
	}
	return merged, nil
}
