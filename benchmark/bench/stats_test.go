package bench

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	sorted := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.5, 50}, {0.51, 60}, {0.95, 100}, {0.9, 90}, {1, 100},
	} {
		if got := Quantile(sorted, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile of nothing = %v, want 0", got)
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("Median = %v, want 2", got)
	}
}

// Spread must agree with Python: for 1..10, statistics.quantiles(v, n=4)
// is [2.75, 5.5, 8.25], so the spread is 5.5/5.5; for the second sample
// it is [98.75, 101.5, 104.25].
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	v := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got := Spread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spread(1..10) = %v, want 1", got)
	}
	w := []float64{101, 97, 103, 99, 100, 105, 98, 102, 104, 110}
	if got, want := Spread(w), (104.25-98.75)/101.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("Spread = %v, want %v", got, want)
	}
	if got := Spread([]float64{5}); got != 0 {
		t.Errorf("Spread of one value = %v, want 0", got)
	}
}
