package obs

import (
	"math"
	"runtime/metrics"
	"testing"
)

// PauseStats reports nearest-rank quantiles on bucket upper edges, with
// the unbounded last bucket reported at its lower edge.
func TestPauseStats(t *testing.T) {
	buckets := []float64{math.Inf(-1), 0, 1e-6, 1e-5, 1e-4, math.Inf(1)}
	for _, c := range []struct {
		counts        []uint64
		p50, p99, max float64
	}{
		{[]uint64{0, 10, 2, 0, 3}, 1e-6, 1e-4, 1e-4},
		{[]uint64{0, 0, 0, 0, 0}, 0, 0, 0},
		{[]uint64{0, 0, 0, 0, 9}, 1e-4, 1e-4, 1e-4},
		{[]uint64{0, 0, 5, 5, 0}, 1e-5, 1e-4, 1e-4},
		{[]uint64{0, 200, 0, 1, 0}, 1e-6, 1e-6, 1e-4},
	} {
		p50, p99, max := PauseStats(&metrics.Float64Histogram{Counts: c.counts, Buckets: buckets})
		if p50 != c.p50 || p99 != c.p99 || max != c.max {
			t.Errorf("counts %v: PauseStats = (%g, %g, %g), want (%g, %g, %g)", c.counts, p50, p99, max, c.p50, c.p99, c.max)
		}
	}
}
