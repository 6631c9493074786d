package fleet

import (
	"math"
	"runtime/metrics"
	"testing"
)

// pauseDelta reads a run's own GC pauses out of two cumulative
// histograms: nearest-rank quantiles on bucket upper edges, with the
// unbounded last bucket reported at its lower edge.
func TestPauseDelta(t *testing.T) {
	buckets := []float64{math.Inf(-1), 0, 1e-6, 1e-5, 1e-4, math.Inf(1)}
	hist := func(counts ...uint64) *metrics.Float64Histogram {
		return &metrics.Float64Histogram{Counts: counts, Buckets: buckets}
	}
	for _, c := range []struct {
		name          string
		start, end    *metrics.Float64Histogram
		p50, p99, max float64
	}{
		{"unbounded last bucket", hist(0, 1, 2, 0, 0), hist(0, 11, 4, 0, 3), 1e-6, 1e-4, 1e-4},
		{"exact half", hist(0, 0, 0, 0, 0), hist(0, 2, 0, 2, 0), 1e-6, 1e-4, 1e-4},
		{"only the unbounded bucket", hist(0, 0, 0, 0, 4), hist(0, 0, 0, 0, 9), 1e-4, 1e-4, 1e-4},
		{"empty delta", hist(0, 3, 1, 0, 2), hist(0, 3, 1, 0, 2), 0, 0, 0},
		{"no start", nil, hist(0, 0, 5, 5, 0), 1e-5, 1e-4, 1e-4},
		{"no end", hist(0, 1, 0, 0, 0), nil, 0, 0, 0},
	} {
		p50, p99, max := pauseDelta(c.start, c.end)
		if p50 != c.p50 || p99 != c.p99 || max != c.max {
			t.Errorf("%s: pauseDelta = (%g, %g, %g), want (%g, %g, %g)", c.name, p50, p99, max, c.p50, c.p99, c.max)
		}
	}
}
