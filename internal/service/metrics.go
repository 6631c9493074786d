package service

import (
	"io"

	"repro/internal/obs"
)

// Metrics are the engine's cumulative counters and latency histograms,
// each registered once on reg by init (NewEngine calls it). Cache and
// store counts live in the tiers themselves (solution.Cache.Stats,
// solution.Store.Stats) — the single sources of truth the registry
// reads at scrape time.
type Metrics struct {
	reg obs.Registry

	Requests         *obs.Counter
	Solves           *obs.Counter
	Coalesced        *obs.Counter
	PlanCalls        *obs.Counter
	Races            *obs.Counter
	OrientErrors     *obs.Counter
	VerifyFailures   *obs.Counter
	Shed             *obs.Counter
	DeadlineExceeded *obs.Counter
	NegativeHits     *obs.Counter
	// Panics counts handler panics caught by the recovery middleware
	// (each answered 500; the process stays up).
	Panics *obs.Counter

	// SolveSeconds distributes the end-to-end latency of /orient
	// requests answered by a computed miss (cache lookup through fill);
	// HitSeconds that of /orient requests served by either cache tier;
	// SolvePoints the instance sizes actually solved. All share the obs
	// bucket layouts so fleet reports can merge them.
	SolveSeconds *obs.Histogram
	HitSeconds   *obs.Histogram
	SolvePoints  *obs.Histogram
}

// init registers every engine family in /metrics order: request
// lifecycle, the memory tier, the disk tier when a store is attached,
// then the histograms. The names are part of the operational contract
// documented in docs/OPERATIONS.md.
func (m *Metrics) init(e *Engine) {
	r := &m.reg
	m.Requests = r.Counter("antennad_requests_total", "Solve calls received")
	m.Solves = r.Counter("antennad_solves_total", "artifacts actually computed (misses after coalescing)")
	m.Coalesced = r.Counter("antennad_coalesced_total", "requests that shared an identical in-flight solve")
	r.Func("antennad_flights_detached", "solves whose callers all left, still running for a retry to join", "gauge", func() uint64 { e.flightMu.Lock(); defer e.flightMu.Unlock(); return uint64(e.detached) })
	m.Shed = r.Counter("antennad_shed_total", "requests shed with 429 by the inflight bound")
	m.DeadlineExceeded = r.Counter("antennad_deadline_exceeded_total", "requests abandoned on an expired deadline")
	m.Panics = r.Counter("antennad_panics_total", "handler panics recovered by the middleware")
	r.Func("antennad_cache_hits_total", "artifact cache lookups that hit", "counter", func() uint64 { h, _ := e.cache.Stats(); return h })
	r.Func("antennad_cache_misses_total", "artifact cache lookups that missed (includes requests later rejected)", "counter", func() uint64 { _, mi := e.cache.Stats(); return mi })
	m.NegativeHits = r.Counter("antennad_negative_hits_total", "infeasible requests answered from the negative cache without re-planning")
	r.Func("antennad_negative_entries", "infeasible request keys currently remembered", "gauge", func() uint64 { return uint64(e.NegativeLen()) })
	m.PlanCalls = r.Counter("antennad_plan_total", "planner selections")
	m.Races = r.Counter("antennad_races_total", "planner shortlist races")
	m.OrientErrors = r.Counter("antennad_orient_errors_total", "orientation failures")
	m.VerifyFailures = r.Counter("antennad_verify_failures_total", "artifacts failing independent verification")
	r.Func("antennad_cache_entries", "artifacts currently cached in memory", "gauge", func() uint64 { return uint64(e.cache.Len()) })
	r.Func("antennad_cache_bytes", "encoded bytes currently cached in memory", "gauge", func() uint64 { return uint64(e.cache.Bytes()) })
	if st := e.store; st != nil {
		r.Func("antennad_store_hits_total", "disk store lookups that hit", "counter", func() uint64 { return st.Stats().Hits })
		r.Func("antennad_store_misses_total", "disk store lookups that missed", "counter", func() uint64 { return st.Stats().Misses })
		r.Func("antennad_store_corrupt_total", "disk store files rejected and deleted as corrupt", "counter", func() uint64 { return st.Stats().Corruptions })
		r.Func("antennad_store_evictions_total", "disk store files swept by the byte cap", "counter", func() uint64 { return st.Stats().Evictions })
		r.Func("antennad_store_sweeps_total", "background byte-cap sweeps started", "counter", func() uint64 { return st.Stats().Sweeps })
		r.Func("antennad_store_writes_total", "artifacts written to the disk store", "counter", func() uint64 { return st.Stats().Writes })
		r.Func("antennad_store_write_errors_total", "failed disk store writes", "counter", func() uint64 { return st.Stats().WriteErrors })
		r.Func("antennad_store_entries", "artifact files currently on disk", "gauge", func() uint64 { return uint64(st.Stats().Entries) })
		r.Func("antennad_store_bytes", "artifact bytes currently on disk", "gauge", func() uint64 { return uint64(st.Stats().Bytes) })
	}
	m.SolveSeconds = r.Histogram("antennad_solve_seconds", "latency of /orient requests answered by a computed solve", obs.LatencyBuckets())
	m.HitSeconds = r.Histogram("antennad_hit_seconds", "latency of /orient requests served by a cache tier", obs.LatencyBuckets())
	m.SolvePoints = r.Histogram("antennad_solve_points", "instance sizes (points) of computed solves", obs.SizeBuckets())
}

// Metrics returns the engine's counters.
func (e *Engine) Metrics() *Metrics { return &e.metrics }

// WriteMetrics renders the engine's families in Prometheus text format.
func (e *Engine) WriteMetrics(w io.Writer) error { return e.metrics.reg.Write(w) }
