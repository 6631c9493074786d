package service

import (
	"io"
	"sync/atomic"

	"repro/internal/obs"
)

// Metrics are the engine's cumulative counters and latency histograms.
// Counter fields are atomics; the histogram pointers are installed by
// init (NewEngine calls it). Cache hit/miss counts live in the cache
// tiers themselves (solution.Cache.Stats, solution.Store.Stats) — the
// single sources of truth WriteMetrics renders.
type Metrics struct {
	Requests         atomic.Uint64
	Solves           atomic.Uint64
	Coalesced        atomic.Uint64
	PlanCalls        atomic.Uint64
	Races            atomic.Uint64
	OrientErrors     atomic.Uint64
	VerifyFailures   atomic.Uint64
	Shed             atomic.Uint64
	DeadlineExceeded atomic.Uint64
	NegativeHits     atomic.Uint64
	// Panics counts handler panics caught by the recovery middleware
	// (each answered 500; the process stays up).
	Panics atomic.Uint64

	// SolveSeconds distributes the end-to-end latency of /orient
	// requests answered by a computed miss (cache lookup through fill);
	// HitSeconds that of /orient requests served by either cache tier;
	// SolvePoints the instance sizes actually solved. All share the obs
	// bucket layouts so fleet reports can merge them.
	SolveSeconds *obs.Histogram
	HitSeconds   *obs.Histogram
	SolvePoints  *obs.Histogram
}

// init installs the histogram buckets (log-spaced 10µs..10s latencies,
// 1-2-5 sizes).
func (m *Metrics) init() {
	m.SolveSeconds = obs.NewHistogram(obs.LatencyBuckets())
	m.HitSeconds = obs.NewHistogram(obs.LatencyBuckets())
	m.SolvePoints = obs.NewHistogram(obs.SizeBuckets())
}

// Metrics returns the engine's counters.
func (e *Engine) Metrics() *Metrics { return &e.metrics }

// metricRow is one line triple of the Prometheus text rendering.
type metricRow struct {
	name, help, kind string
	value            uint64
}

// WriteMetrics renders the engine counters in Prometheus text format:
// request-lifecycle counters first, then the memory-tier rows, then —
// when a durable store is attached — the disk-tier rows. The row names
// are part of the operational contract documented in docs/OPERATIONS.md.
func (e *Engine) WriteMetrics(w io.Writer) error {
	m := &e.metrics
	hits, misses := e.cache.Stats()
	rows := []metricRow{
		{"antennad_requests_total", "Solve calls received", "counter", m.Requests.Load()},
		{"antennad_solves_total", "artifacts actually computed (misses after coalescing)", "counter", m.Solves.Load()},
		{"antennad_coalesced_total", "requests that shared an identical in-flight solve", "counter", m.Coalesced.Load()},
		{"antennad_shed_total", "requests shed with 429 by the inflight bound", "counter", m.Shed.Load()},
		{"antennad_deadline_exceeded_total", "requests abandoned on an expired deadline", "counter", m.DeadlineExceeded.Load()},
		{"antennad_panics_total", "handler panics recovered by the middleware", "counter", m.Panics.Load()},
		{"antennad_cache_hits_total", "artifact cache lookups that hit", "counter", hits},
		{"antennad_cache_misses_total", "artifact cache lookups that missed (includes requests later rejected)", "counter", misses},
		{"antennad_negative_hits_total", "infeasible requests answered from the negative cache without re-planning", "counter", m.NegativeHits.Load()},
		{"antennad_negative_entries", "infeasible request keys currently remembered", "gauge", uint64(e.NegativeLen())},
		{"antennad_plan_total", "planner selections", "counter", m.PlanCalls.Load()},
		{"antennad_races_total", "planner shortlist races", "counter", m.Races.Load()},
		{"antennad_orient_errors_total", "orientation failures", "counter", m.OrientErrors.Load()},
		{"antennad_verify_failures_total", "artifacts failing independent verification", "counter", m.VerifyFailures.Load()},
		{"antennad_cache_entries", "artifacts currently cached in memory", "gauge", uint64(e.cache.Len())},
		{"antennad_cache_bytes", "encoded bytes currently cached in memory", "gauge", uint64(e.cache.Bytes())},
	}
	if e.store != nil {
		st := e.store.Stats()
		rows = append(rows,
			metricRow{"antennad_store_hits_total", "disk store lookups that hit", "counter", st.Hits},
			metricRow{"antennad_store_misses_total", "disk store lookups that missed", "counter", st.Misses},
			metricRow{"antennad_store_corrupt_total", "disk store files rejected and deleted as corrupt", "counter", st.Corruptions},
			metricRow{"antennad_store_evictions_total", "disk store files swept by the byte cap", "counter", st.Evictions},
			metricRow{"antennad_store_sweeps_total", "background byte-cap sweeps started", "counter", st.Sweeps},
			metricRow{"antennad_store_writes_total", "artifacts written to the disk store", "counter", st.Writes},
			metricRow{"antennad_store_write_errors_total", "failed disk store writes", "counter", st.WriteErrors},
			metricRow{"antennad_store_entries", "artifact files currently on disk", "gauge", uint64(st.Entries)},
			metricRow{"antennad_store_bytes", "artifact bytes currently on disk", "gauge", uint64(st.Bytes)},
		)
	}
	for _, r := range rows {
		if err := obs.WriteScalar(w, r.name, r.help, r.kind, r.value); err != nil {
			return err
		}
	}
	if err := m.SolveSeconds.Write(w, "antennad_solve_seconds", "latency of /orient requests answered by a computed solve"); err != nil {
		return err
	}
	if err := m.HitSeconds.Write(w, "antennad_hit_seconds", "latency of /orient requests served by a cache tier"); err != nil {
		return err
	}
	return m.SolvePoints.Write(w, "antennad_solve_points", "instance sizes (points) of computed solves")
}
