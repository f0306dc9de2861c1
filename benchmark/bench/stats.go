package bench

import (
	"math"
	"sort"
)

// Quantile is the exact nearest-rank quantile of an ascending sample —
// the estimator internal/loadgen and telemetry.Window use, so the
// benchmark's percentiles compare with theirs. It returns 0 for an empty
// sample.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Median is the nearest-rank median of values, which it leaves unsorted.
func Median(values []float64) float64 {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return Quantile(sorted, 0.5)
}

// Spread is the distance between the first and third quartile of values
// as a share of their median, with quartiles and median as Python's
// statistics.quantiles(values, n=4) gives them — the steadiness measure
// the benchmark's bounds are held against. It needs two values or more.
func Spread(values []float64) float64 {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	m := len(sorted)
	if m < 2 {
		return 0
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	med := cut(2)
	if med == 0 {
		return 0
	}
	return (cut(3) - cut(1)) / math.Abs(med)
}
