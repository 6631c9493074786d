package instance

import (
	"io"

	"repro/internal/obs"
)

// Metrics are the manager's cumulative counters and distributions, each
// registered once on reg by initMetrics. The family names are part of
// the operational contract documented in docs/OPERATIONS.md. Per-
// instance detail (revision, size, repair counts) is served by
// GET /instances, not /metrics, so the scrape does not grow with the
// instance count.
type Metrics struct {
	reg obs.Registry

	Created              *obs.Counter
	Deleted              *obs.Counter
	Batches              *obs.Counter
	Repairs              *obs.Counter
	FullSolves           *obs.Counter
	RepairFallbacks      *obs.Counter
	RepairVerifyFailures *obs.Counter
	Conflicts            *obs.Counter
	// Per-class repair counters, rendered as antennad_repair_total{class}.
	RepairsEMST *obs.Counter
	RepairsTour *obs.Counter
	RepairsBats *obs.Counter
	// Incremental-verifier counters: maintained-verdict revisions, ones
	// it rejected, full-audit escape-hatch runs, and audits whose
	// from-scratch verdict diverged from the maintained one (each
	// divergence invalidates the repair state and full-solves).
	VerifyIncremental        *obs.Counter
	VerifyIncrementalRejects *obs.Counter
	VerifyAudits             *obs.Counter
	VerifyAuditDivergence    *obs.Counter
	// WAL counters (all zero while durability is disabled).
	WALAppends          *obs.Counter
	WALAppendErrors     *obs.Counter
	WALSyncs            *obs.Counter
	WALSnapshots        *obs.Counter
	WALRecovered        *obs.Counter
	WALTornTails        *obs.Counter
	WALRecoveryFailures *obs.Counter
	// DirtyFrac distributes the per-revision dirty fraction (re-aimed
	// sensors / n); ChurnSeconds the server-side revision latency (the
	// PATCH path); RepairSeconds the latency of revisions served by
	// incremental repair only; WALSyncSeconds the fsync durations paid
	// by acknowledged mutations. The latency histograms share the obs
	// log-spaced bucket layout so fleet reports can merge and compare
	// them against client-observed latencies.
	DirtyFrac      *obs.Histogram
	ChurnSeconds   *obs.Histogram
	RepairSeconds  *obs.Histogram
	WALSyncSeconds *obs.Histogram
}

// dirtyBounds bucket dirty fractions from "a few sensors" to "whole
// instance".
var dirtyBounds = []float64{0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 1}

// repairClassCounter maps a repair class to its per-class counter;
// unknown classes land in the EMST counter (cannot happen — tryRepair
// only produces registered classes).
func (m *Metrics) repairClassCounter(class string) *obs.Counter {
	switch class {
	case "tour":
		return m.RepairsTour
	case "bats":
		return m.RepairsBats
	default:
		return m.RepairsEMST
	}
}

// initMetrics registers every family in /metrics order; called once by
// NewManager. live reads the live-instance count at scrape time.
func (m *Metrics) initMetrics(live func() uint64) {
	r := &m.reg
	m.Created = r.Counter("antennad_instances_created_total", "instances created")
	m.Deleted = r.Counter("antennad_instances_deleted_total", "instances deleted")
	m.Batches = r.Counter("antennad_instance_batches_total", "mutation batches applied")
	m.Repairs = r.Counter("antennad_instance_repairs_total", "revisions served by incremental repair")
	m.FullSolves = r.Counter("antennad_instance_full_solves_total", "revisions served by a full engine solve")
	m.RepairFallbacks = r.Counter("antennad_instance_repair_fallbacks_total", "repair attempts abandoned before verification (splice bail or dirty threshold)")
	m.RepairVerifyFailures = r.Counter("antennad_instance_repair_verify_failures_total", "repairs rejected by re-verification and re-solved in full")
	m.Conflicts = r.Counter("antennad_instance_conflicts_total", "conditional batches rejected on a stale revision")
	m.WALAppends = r.Counter("antennad_instance_wal_appends_total", "WAL records appended")
	m.WALAppendErrors = r.Counter("antennad_instance_wal_append_errors_total", "WAL appends or snapshots that failed (mutation not acknowledged)")
	m.WALSyncs = r.Counter("antennad_instance_wal_syncs_total", "WAL fsyncs issued")
	m.WALSnapshots = r.Counter("antennad_instance_wal_snapshots_total", "snapshot compactions")
	m.WALRecovered = r.Counter("antennad_instance_wal_recovered_total", "instances recovered by WAL replay at startup")
	m.WALTornTails = r.Counter("antennad_instance_wal_torn_tails_total", "torn or truncated final WAL records cut at recovery")
	m.WALRecoveryFailures = r.Counter("antennad_instance_wal_recovery_failures_total", "instance directories that failed to recover")
	classes := r.Counters("antennad_repair_total", "incremental repairs by repair class", "class", "emst", "tour", "bats")
	m.RepairsEMST, m.RepairsTour, m.RepairsBats = classes[0], classes[1], classes[2]
	m.VerifyIncremental = r.Counter("antennad_verify_incremental_total", "revisions audited by the maintained incremental verifier")
	m.VerifyIncrementalRejects = r.Counter("antennad_verify_incremental_rejects_total", "repairs rejected by the incremental verifier and re-solved in full")
	m.VerifyAudits = r.Counter("antennad_verify_incremental_audits_total", "periodic from-scratch audits of the maintained verdict (escape hatch)")
	m.VerifyAuditDivergence = r.Counter("antennad_verify_incremental_divergence_total", "audits whose from-scratch verdict diverged from the maintained one")
	m.DirtyFrac = r.Histogram("antennad_instance_dirty_fraction", "fraction of sensors re-aimed per revision", dirtyBounds)
	m.ChurnSeconds = r.Histogram("antennad_instance_churn_seconds", "server-side latency of producing a revision", obs.LatencyBuckets())
	m.RepairSeconds = r.Histogram("antennad_instance_repair_seconds", "server-side latency of revisions served by incremental repair", obs.LatencyBuckets())
	m.WALSyncSeconds = r.Histogram("antennad_instance_wal_sync_seconds", "WAL fsync durations", obs.LatencyBuckets())
	r.Func("antennad_instances", "live instances", "gauge", live)
}

// WriteMetrics renders the instance tier's families in Prometheus text
// format.
func (m *Manager) WriteMetrics(w io.Writer) error { return m.metrics.reg.Write(w) }
