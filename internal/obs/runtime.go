package obs

import (
	"encoding/json"
	"math"
	"net/http"
	"runtime/metrics"
)

// RuntimeSnapshot is the /debug/runtime payload: the GC/heap/scheduler
// counters most useful when pairing a soak with server-side visibility.
type RuntimeSnapshot struct {
	Goroutines      int64   `json:"goroutines"`
	HeapObjectBytes uint64  `json:"heap_object_bytes"`
	TotalAllocBytes uint64  `json:"total_alloc_bytes"`
	GCCycles        uint64  `json:"gc_cycles"`
	GCPauseP50MS    float64 `json:"gc_pause_p50_ms"`
	GCPauseP99MS    float64 `json:"gc_pause_p99_ms"`
	GCPauseMaxMS    float64 `json:"gc_pause_max_ms"`
}

var runtimeSamples = []string{
	"/sched/goroutines:goroutines",
	"/memory/classes/heap/objects:bytes",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

// ReadRuntime samples runtime/metrics into a RuntimeSnapshot.
func ReadRuntime() RuntimeSnapshot {
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	var snap RuntimeSnapshot
	for _, s := range samples {
		switch s.Name {
		case "/sched/goroutines:goroutines":
			if s.Value.Kind() == metrics.KindUint64 {
				snap.Goroutines = int64(s.Value.Uint64())
			}
		case "/memory/classes/heap/objects:bytes":
			if s.Value.Kind() == metrics.KindUint64 {
				snap.HeapObjectBytes = s.Value.Uint64()
			}
		case "/gc/heap/allocs:bytes":
			if s.Value.Kind() == metrics.KindUint64 {
				snap.TotalAllocBytes = s.Value.Uint64()
			}
		case "/gc/cycles/total:gc-cycles":
			if s.Value.Kind() == metrics.KindUint64 {
				snap.GCCycles = s.Value.Uint64()
			}
		case "/sched/pauses/total/gc:seconds":
			if s.Value.Kind() == metrics.KindFloat64Histogram {
				p50, p99, max := PauseStats(s.Value.Float64Histogram())
				snap.GCPauseP50MS, snap.GCPauseP99MS, snap.GCPauseMaxMS = p50*1e3, p99*1e3, max*1e3
			}
		}
	}
	return snap
}

// upperBound returns bucket i's upper edge, falling back to its lower
// edge when the final bucket is unbounded (+Inf).
func upperBound(h *metrics.Float64Histogram, i int) float64 {
	hi := h.Buckets[i+1]
	if math.IsInf(hi, 1) {
		return h.Buckets[i]
	}
	return hi
}

// PauseStats reads the p50, p99 and max of a GC pause histogram, in
// seconds: nearest rank on buckets, each reported at its upper edge (the
// resolution runtime/metrics provides). ReadRuntime applies it to the
// process's cumulative histogram; the fleet report applies it to the
// difference of two samples.
func PauseStats(h *metrics.Float64Histogram) (p50, p99, max float64) {
	var total uint64
	last := -1
	for i, c := range h.Counts {
		total += c
		if c > 0 {
			last = i
		}
	}
	if total == 0 {
		return 0, 0, 0
	}
	quantile := func(q float64) float64 {
		rank := uint64(math.Ceil(float64(total) * q))
		var cum uint64
		for i, c := range h.Counts {
			if cum += c; cum >= rank {
				return upperBound(h, i)
			}
		}
		return upperBound(h, last)
	}
	return quantile(0.5), quantile(0.99), upperBound(h, last)
}

// HandleRuntime serves a RuntimeSnapshot as JSON — the /debug/runtime
// endpoint on the debug mux.
func HandleRuntime(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(ReadRuntime())
}
