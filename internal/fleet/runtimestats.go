package fleet

import (
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
)

// RuntimeStats is the Go-runtime profile of one soak run, sampled via
// runtime/metrics: heap growth start→end (the leak signal a trajectory
// of rows makes visible), the live-heap peak, total bytes allocated, GC
// cycle count, and the GC pause distribution — all as deltas over the
// run, so rows are comparable across soak durations.
type RuntimeStats struct {
	HeapStartBytes  uint64  `json:"heap_start_bytes"`
	HeapEndBytes    uint64  `json:"heap_end_bytes"`
	HeapPeakBytes   uint64  `json:"heap_peak_bytes"`
	HeapGrowthBytes int64   `json:"heap_growth_bytes"`
	AllocBytesTotal uint64  `json:"alloc_bytes_total"`
	GCCycles        uint64  `json:"gc_cycles"`
	GCPauseP50ms    float64 `json:"gc_pause_p50_ms"`
	GCPauseP99ms    float64 `json:"gc_pause_p99_ms"`
	GCPauseMaxMS    float64 `json:"gc_pause_max_ms"`
}

// Metric names sampled from runtime/metrics. heapInUse approximates the
// live heap (spans in use), allocTotal and gcCount are cumulative, and
// gcPauses is a cumulative histogram — deltas between two snapshots give
// the run's own distribution.
const (
	metricHeapInUse = "/memory/classes/heap/objects:bytes"
	metricAllocs    = "/gc/heap/allocs:bytes"
	metricGCCount   = "/gc/cycles/total:gc-cycles"
	metricGCPauses  = "/sched/pauses/total/gc:seconds"
)

// runtimeSampler snapshots the runtime at soak start, tracks the heap
// peak on a coarse ticker, and folds everything into a RuntimeStats at
// stop.
type runtimeSampler struct {
	start    [4]metrics.Sample
	peak     uint64
	stop     chan struct{}
	wg       sync.WaitGroup
	interval time.Duration
}

func newRuntimeSampler() *runtimeSampler {
	s := &runtimeSampler{stop: make(chan struct{}), interval: 250 * time.Millisecond}
	for i, name := range []string{metricHeapInUse, metricAllocs, metricGCCount, metricGCPauses} {
		s.start[i].Name = name
	}
	metrics.Read(s.start[:])
	s.peak = sampleUint(s.start[0])
	s.wg.Add(1)
	go s.watch()
	return s
}

// watch keeps the heap peak honest between the endpoints; the soak's
// allocation spikes live inside phases, not at their edges.
func (s *runtimeSampler) watch() {
	defer s.wg.Done()
	tick := time.NewTicker(s.interval)
	defer tick.Stop()
	one := []metrics.Sample{{Name: metricHeapInUse}}
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			metrics.Read(one)
			if v := sampleUint(one[0]); v > s.peak {
				s.peak = v
			}
		}
	}
}

// Stop ends sampling and returns the run's runtime profile.
func (s *runtimeSampler) Stop() *RuntimeStats {
	close(s.stop)
	s.wg.Wait()
	end := make([]metrics.Sample, len(s.start))
	for i := range end {
		end[i].Name = s.start[i].Name
	}
	metrics.Read(end)

	st := &RuntimeStats{
		HeapStartBytes:  sampleUint(s.start[0]),
		HeapEndBytes:    sampleUint(end[0]),
		AllocBytesTotal: sampleUint(end[1]) - sampleUint(s.start[1]),
		GCCycles:        sampleUint(end[2]) - sampleUint(s.start[2]),
	}
	if st.HeapEndBytes > s.peak {
		s.peak = st.HeapEndBytes
	}
	st.HeapPeakBytes = s.peak
	st.HeapGrowthBytes = int64(st.HeapEndBytes) - int64(st.HeapStartBytes)
	if s.start[3].Value.Kind() == metrics.KindFloat64Histogram {
		p50, p99, max := pauseDelta(s.start[3].Value.Float64Histogram(), end[3].Value.Float64Histogram())
		st.GCPauseP50ms, st.GCPauseP99ms, st.GCPauseMaxMS = secMS(p50), secMS(p99), secMS(max)
	}
	return st
}

func sampleUint(s metrics.Sample) uint64 {
	if s.Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s.Value.Uint64()
}

// pauseDelta reads the run's own pause distribution out of two cumulative
// histograms: the difference of their counts, through obs.PauseStats.
func pauseDelta(start, end *metrics.Float64Histogram) (p50, p99, max float64) {
	if end == nil {
		return 0, 0, 0
	}
	delta := &metrics.Float64Histogram{Counts: slices.Clone(end.Counts), Buckets: end.Buckets}
	if start != nil {
		for i := range min(len(start.Counts), len(delta.Counts)) {
			delta.Counts[i] -= start.Counts[i]
		}
	}
	return obs.PauseStats(delta)
}

// secMS converts seconds to the report's fractional milliseconds.
func secMS(s float64) float64 { return ms(time.Duration(s * float64(time.Second))) }
