package selection

import (
	"reflect"
	"testing"
)

func TestMergeWeightedPrefersGoodDatabases(t *testing.T) {
	// Same raw document scores; database 1 has a higher selection score,
	// so its documents must outrank database 0's.
	results := [][]DocScore{
		{{Doc: 10, Score: 0.5}},
		{{Doc: 20, Score: 0.5}},
	}
	merged, err := MergeWeighted(results, []float64{0.4, 0.8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 2 {
		t.Fatalf("merged %d hits", len(merged))
	}
	if merged[0].DB != 1 || merged[0].Doc != 20 {
		t.Errorf("best hit = %+v, want db 1 doc 20", merged[0])
	}
	if merged[0].Score <= merged[1].Score {
		t.Error("scores not descending")
	}
}

func TestMergeWeightedTopK(t *testing.T) {
	results := [][]DocScore{
		{{Doc: 1, Score: 0.9}, {Doc: 2, Score: 0.8}},
		{{Doc: 3, Score: 0.7}},
	}
	merged, err := MergeWeighted(results, []float64{1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 2 {
		t.Errorf("k=2 returned %d", len(merged))
	}
}

func TestMergeWeightedKLargerThanTotal(t *testing.T) {
	results := [][]DocScore{
		{{Doc: 1, Score: 0.9}},
		{{Doc: 3, Score: 0.7}},
	}
	merged, err := MergeWeighted(results, []float64{1, 1}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 2 {
		t.Errorf("k=50 over 2 hits returned %d", len(merged))
	}
}

func TestMergeWeightedEmptyInputs(t *testing.T) {
	if merged, err := MergeWeighted(nil, nil, 5); err != nil || len(merged) != 0 {
		t.Errorf("nil inputs: merged=%v err=%v", merged, err)
	}
	// Present-but-empty lists merge to nothing, without error.
	if merged, err := MergeWeighted([][]DocScore{{}, {}}, []float64{1, 2}, 0); err != nil || len(merged) != 0 {
		t.Errorf("empty lists: merged=%v err=%v", merged, err)
	}
}

func TestMergeWeightedDeterministicTies(t *testing.T) {
	results := [][]DocScore{
		{{Doc: 5, Score: 0.5}, {Doc: 3, Score: 0.5}},
		{{Doc: 1, Score: 0.5}},
	}
	a, errA := MergeWeighted(results, []float64{1, 1}, 0)
	b, errB := MergeWeighted(results, []float64{1, 1}, 0)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("tie ordering unstable")
	}
	// Ties: db 0 before db 1; doc 3 before doc 5.
	if a[0].DB != 0 || a[0].Doc != 3 {
		t.Errorf("tie order: %+v", a)
	}
}

// The front fuses once per query into one recycled buffer; the fuse itself
// must not allocate (sort.Slice boxed the slice and its closure: 3 per call).
func TestMergeWeightedIntoZeroAlloc(t *testing.T) {
	results := [][]DocScore{
		{{Doc: 0, Score: 0.9}, {Doc: 1, Score: 0.5}, {Doc: 2, Score: 0.5}},
		{{Doc: 0, Score: 0.7}, {Doc: 1, Score: 0.5}},
	}
	dbScores := []float64{0.8, 1}
	dst := make([]MergedHit, 0, 8)
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if dst, err = MergeWeightedInto(dst, results, dbScores, 3); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("MergeWeightedInto allocated %.1f times per fuse, want 0", allocs)
	}
	if len(dst) != 3 || dst[0] != (MergedHit{DB: 0, Doc: 0, Score: 0.9 * 0.9}) {
		t.Errorf("fused top 3 = %+v", dst)
	}
}

func TestMergeWeightedMismatchedInputs(t *testing.T) {
	// A length mismatch is a programmer error: it must be reported, not
	// read as "no hits".
	got, err := MergeWeighted([][]DocScore{{}}, []float64{1, 2}, 0)
	if err == nil {
		t.Fatalf("mismatched inputs returned %v without error", got)
	}
	if got != nil {
		t.Errorf("mismatched inputs returned hits %v alongside the error", got)
	}
}

func TestMergeWeightedZeroDBScores(t *testing.T) {
	// All-zero selection scores degrade gracefully to raw-score order.
	results := [][]DocScore{
		{{Doc: 1, Score: 0.3}},
		{{Doc: 2, Score: 0.9}},
	}
	merged, err := MergeWeighted(results, []float64{0, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if merged[0].Doc != 2 {
		t.Errorf("zero-score merge order wrong: %+v", merged)
	}
}

func TestMergeWeightedAllNonpositiveDBScores(t *testing.T) {
	// Negative (log-space) selection scores must still prefer the better
	// database: before the min-max shift, maxDB stayed 0 and every weight
	// silently became 1.
	results := [][]DocScore{
		{{Doc: 10, Score: 0.5}},
		{{Doc: 20, Score: 0.5}},
	}
	merged, err := MergeWeighted(results, []float64{-4, -1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if merged[0].DB != 1 || merged[0].Doc != 20 {
		t.Errorf("best hit = %+v, want db 1 doc 20 (higher selection score)", merged[0])
	}
	if merged[0].Score <= merged[1].Score {
		t.Error("nonpositive-score merge did not separate the databases")
	}
	// The best database keeps its raw document score (weight 1).
	if merged[0].Score != 0.5 {
		t.Errorf("best database weight = %v, want 1 (score 0.5)", merged[0].Score/0.5)
	}
}
