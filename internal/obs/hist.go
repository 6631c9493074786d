package obs

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket histogram with atomic counters: Observe is
// allocation-free and safe for concurrent use; a Registry renders it in
// Prometheus text exposition format. Bucket bounds are fixed at
// construction (log-spaced for latencies, see LatencyBuckets).
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []atomic.Uint64
	sum    atomic.Uint64 // math.Float64bits of the running sum
	n      atomic.Uint64
}

// NewHistogram builds a histogram over the given ascending bucket upper
// bounds. The bounds slice is copied.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Uint64, len(bounds)+1)
	return h
}

// LatencyBuckets returns log-spaced bounds covering 10µs to 10s at four
// buckets per decade — the shared layout for every duration histogram,
// which keeps snapshots mergeable (hit + solve latencies combine into a
// server-side view of /orient).
func LatencyBuckets() []float64 {
	bounds := make([]float64, 0, 25)
	for i := 0; i <= 24; i++ {
		bounds = append(bounds, 1e-5*math.Pow(10, float64(i)/4))
	}
	return bounds
}

// SizeBuckets returns a 1-2-5 series from 1 to 2e6, the layout for the
// solve-size (points per instance) histogram.
func SizeBuckets() []float64 {
	var bounds []float64
	for _, d := range []float64{1, 10, 100, 1e3, 1e4, 1e5, 1e6} {
		bounds = append(bounds, d, 2*d, 5*d)
	}
	return bounds[:len(bounds)-1] // stop at 2e6
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n.Load() }

// HistogramSnapshot is a point-in-time copy of a histogram, used for
// fleet report summaries and quantile estimation.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"` // len(Bounds)+1; last is the +Inf bucket
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
}

// Snapshot copies the histogram's current state. Concurrent observers
// may land between bucket reads; totals are reconciled so Count equals
// the sum of Counts.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	return s
}

// write renders the snapshot's samples in Prometheus text format:
// cumulative le buckets, an explicit +Inf bucket, _sum and _count. The
// HELP and TYPE lines are the Registry's.
func (s HistogramSnapshot) write(w io.Writer, name string) error {
	var cum uint64
	for i, b := range s.Bounds {
		cum += s.Counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, b, cum); err != nil {
			return err
		}
	}
	cum += s.Counts[len(s.Counts)-1]
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n", name, cum, name, s.Sum, name, cum)
	return err
}

// Quantile estimates the q-quantile (0..1) from bucket counts, reporting
// the upper bound of the bucket holding the rank (+Inf maps to the last
// finite bound). Returns 0 when the histogram is empty.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			return s.Bounds[len(s.Bounds)-1]
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Merge combines two snapshots with identical bounds into one (used to
// blend hit and solve latencies into a single /orient view).
func (s HistogramSnapshot) Merge(o HistogramSnapshot) (HistogramSnapshot, error) {
	if len(s.Bounds) != len(o.Bounds) {
		return HistogramSnapshot{}, fmt.Errorf("obs: merge bounds differ: %d vs %d", len(s.Bounds), len(o.Bounds))
	}
	for i := range s.Bounds {
		if s.Bounds[i] != o.Bounds[i] {
			return HistogramSnapshot{}, fmt.Errorf("obs: merge bounds differ at %d", i)
		}
	}
	out := HistogramSnapshot{
		Bounds: append([]float64(nil), s.Bounds...),
		Counts: make([]uint64, len(s.Counts)),
		Sum:    s.Sum + o.Sum,
	}
	for i := range s.Counts {
		out.Counts[i] = s.Counts[i] + o.Counts[i]
		out.Count += out.Counts[i]
	}
	return out, nil
}
