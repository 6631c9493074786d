package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported as supported: a p90 needs at least 100 samples, a p99 1000.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of vs, or
// 0 for an empty sample. vs need not be sorted; it is not modified.
func percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s[rank(len(s), q)-1]
}

// rank is the 1-based nearest rank of the q-quantile in n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	return min(max(r, 1), n)
}

// supported reports whether n samples put at least minBeyond samples
// strictly above the q-quantile.
func supported(n int, q float64) bool {
	return n > 0 && n-rank(n, q) >= minBeyond
}

// percentileLadder is the set of percentiles a class summary may claim.
var percentileLadder = []float64{0.5, 0.9, 0.99, 0.999}

// highestSupported returns the highest ladder percentile n samples
// support, or 0 when even the median is not supported.
func highestSupported(n int) float64 {
	best := 0.0
	for _, q := range percentileLadder {
		if supported(n, q) {
			best = q
		}
	}
	return best
}

// quartiles returns the first quartile, median and third quartile of vs
// exactly as Python's statistics.quantiles(vs, n=4) computes them (the
// default "exclusive" method), so spreads printed here match the ones
// the acceptance check computes. Fewer than two values return that value
// (or zeros) three times.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// median is the middle of vs (mean of the two middle values for an even
// count), or 0 for an empty sample.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	h := len(s) / 2
	if len(s)%2 == 1 {
		return s[h]
	}
	return (s[h-1] + s[h]) / 2
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never exercised).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
