package obs

import (
	"bytes"
	"math"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketPlacement(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 5, 10} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// Bucket i counts v <= bounds[i] (exclusive of earlier buckets);
	// values on a bound land in that bound's bucket.
	want := []uint64{2, 2, 2, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 7 || h.Count() != 7 {
		t.Fatalf("count = %d/%d, want 7", s.Count, h.Count())
	}
	if s.Sum != 0.5+1+1.5+2+3+5+10 {
		t.Fatalf("sum = %g", s.Sum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5})
	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %g, want 0", got)
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.5) // first bucket
	}
	h.Observe(100) // +Inf bucket
	s := h.Snapshot()
	if got := s.Quantile(0.5); got != 1 {
		t.Fatalf("p50 = %g, want bucket bound 1", got)
	}
	// The rank falls in the +Inf bucket: report the last finite bound.
	if got := s.Quantile(0.999); got != 5 {
		t.Fatalf("p999 = %g, want last finite bound 5", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(LatencyBuckets())
	b := NewHistogram(LatencyBuckets())
	a.ObserveDuration(2 * time.Millisecond)
	b.ObserveDuration(30 * time.Millisecond)
	b.Observe(5) // above 10s top bound → +Inf
	m, err := a.Snapshot().Merge(b.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if m.Count != 3 {
		t.Fatalf("merged count = %d, want 3", m.Count)
	}
	if want := 0.002 + 0.030 + 5; math.Abs(m.Sum-want) > 1e-12 {
		t.Fatalf("merged sum = %g, want %g", m.Sum, want)
	}

	c := NewHistogram(SizeBuckets())
	if _, err := a.Snapshot().Merge(c.Snapshot()); err == nil {
		t.Fatal("merging mismatched bounds did not error")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(LatencyBuckets())
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	if math.Abs(s.Sum-workers*per*0.001) > 1e-6 {
		t.Fatalf("sum = %g, want %g", s.Sum, workers*per*0.001)
	}
}

// TestHistogramWriteLints: the exposition a histogram renders must pass
// the repo's own lint — the property the /metrics handler relies on.
func TestHistogramWriteLints(t *testing.T) {
	var r Registry
	h := r.Histogram("test_seconds", "test latency", LatencyBuckets())
	h.ObserveDuration(3 * time.Millisecond)
	h.ObserveDuration(70 * time.Millisecond)
	h.Observe(100) // +Inf
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := LintPrometheus(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("rendered histogram fails lint: %v\n%s", err, buf.String())
	}
}

func TestBucketLayouts(t *testing.T) {
	lat := LatencyBuckets()
	if len(lat) != 25 {
		t.Fatalf("LatencyBuckets has %d bounds, want 25", len(lat))
	}
	if lat[0] != 1e-5 {
		t.Fatalf("first latency bound %g, want 1e-5", lat[0])
	}
	if math.Abs(lat[len(lat)-1]-10) > 1e-9 {
		t.Fatalf("last latency bound %g, want 10", lat[len(lat)-1])
	}
	sz := SizeBuckets()
	if sz[len(sz)-1] != 2e6 {
		t.Fatalf("last size bound %g, want 2e6", sz[len(sz)-1])
	}
	for i := 1; i < len(sz); i++ {
		if sz[i] <= sz[i-1] {
			t.Fatalf("size bounds not ascending at %d: %v", i, sz)
		}
	}
	// The constructors must agree across calls, or Merge breaks.
	if _, err := NewHistogram(LatencyBuckets()).Snapshot().Merge(NewHistogram(LatencyBuckets()).Snapshot()); err != nil {
		t.Fatalf("two LatencyBuckets histograms do not merge: %v", err)
	}
}

func TestNewHistogramPanicsOnBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending bounds did not panic")
		}
	}()
	NewHistogram([]float64{1, 1})
}

// BenchmarkHistogramObserve prices one latency observation, the cost
// every phase histogram adds per request.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(LatencyBuckets())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.0042)
	}
}
