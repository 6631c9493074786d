package instance

import (
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/obs"
)

// Metrics are the manager's cumulative counters and distributions. The
// row names rendered by WriteMetrics are part of the operational
// contract documented in docs/OPERATIONS.md.
type Metrics struct {
	Created              atomic.Uint64
	Deleted              atomic.Uint64
	Batches              atomic.Uint64
	Repairs              atomic.Uint64
	FullSolves           atomic.Uint64
	RepairFallbacks      atomic.Uint64
	RepairVerifyFailures atomic.Uint64
	Conflicts            atomic.Uint64
	// Per-class repair counters, rendered as antennad_repair_total{class}.
	RepairsEMST atomic.Uint64
	RepairsTour atomic.Uint64
	RepairsBats atomic.Uint64
	// Incremental-verifier counters: maintained-verdict revisions, ones
	// it rejected, full-audit escape-hatch runs, and audits whose
	// from-scratch verdict diverged from the maintained one (each
	// divergence invalidates the repair state and full-solves).
	VerifyIncremental        atomic.Uint64
	VerifyIncrementalRejects atomic.Uint64
	VerifyAudits             atomic.Uint64
	VerifyAuditDivergence    atomic.Uint64
	// WAL counters (all zero while durability is disabled).
	WALAppends          atomic.Uint64
	WALAppendErrors     atomic.Uint64
	WALSyncs            atomic.Uint64
	WALSnapshots        atomic.Uint64
	WALRecovered        atomic.Uint64
	WALTornTails        atomic.Uint64
	WALRecoveryFailures atomic.Uint64
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
func (m *Metrics) repairClassCounter(class string) *atomic.Uint64 {
	switch class {
	case "tour":
		return &m.RepairsTour
	case "bats":
		return &m.RepairsBats
	default:
		return &m.RepairsEMST
	}
}

// initMetrics installs the histogram buckets; called once by NewManager.
func (m *Metrics) initMetrics() {
	m.DirtyFrac = obs.NewHistogram(dirtyBounds)
	m.ChurnSeconds = obs.NewHistogram(obs.LatencyBuckets())
	m.RepairSeconds = obs.NewHistogram(obs.LatencyBuckets())
	m.WALSyncSeconds = obs.NewHistogram(obs.LatencyBuckets())
}

// WriteMetrics renders the instance tier's rows in Prometheus text
// format: global counters, the dirty-fraction and churn-latency
// histograms, and one labeled row set per live instance.
func (m *Manager) WriteMetrics(w io.Writer) error {
	mm := &m.metrics
	counters := []struct {
		name, help string
		v          uint64
	}{
		{"antennad_instances_created_total", "instances created", mm.Created.Load()},
		{"antennad_instances_deleted_total", "instances deleted", mm.Deleted.Load()},
		{"antennad_instance_batches_total", "mutation batches applied", mm.Batches.Load()},
		{"antennad_instance_repairs_total", "revisions served by incremental repair", mm.Repairs.Load()},
		{"antennad_instance_full_solves_total", "revisions served by a full engine solve", mm.FullSolves.Load()},
		{"antennad_instance_repair_fallbacks_total", "repair attempts abandoned before verification (splice bail or dirty threshold)", mm.RepairFallbacks.Load()},
		{"antennad_instance_repair_verify_failures_total", "repairs rejected by re-verification and re-solved in full", mm.RepairVerifyFailures.Load()},
		{"antennad_instance_conflicts_total", "conditional batches rejected on a stale revision", mm.Conflicts.Load()},
		{"antennad_instance_wal_appends_total", "WAL records appended", mm.WALAppends.Load()},
		{"antennad_instance_wal_append_errors_total", "WAL appends or snapshots that failed (mutation not acknowledged)", mm.WALAppendErrors.Load()},
		{"antennad_instance_wal_syncs_total", "WAL fsyncs issued", mm.WALSyncs.Load()},
		{"antennad_instance_wal_snapshots_total", "snapshot compactions", mm.WALSnapshots.Load()},
		{"antennad_instance_wal_recovered_total", "instances recovered by WAL replay at startup", mm.WALRecovered.Load()},
		{"antennad_instance_wal_torn_tails_total", "torn or truncated final WAL records cut at recovery", mm.WALTornTails.Load()},
		{"antennad_instance_wal_recovery_failures_total", "instance directories that failed to recover", mm.WALRecoveryFailures.Load()},
	}
	for _, c := range counters {
		if err := obs.WriteScalar(w, c.name, c.help, "counter", c.v); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w,
		"# HELP antennad_repair_total incremental repairs by repair class\n# TYPE antennad_repair_total counter\nantennad_repair_total{class=\"emst\"} %d\nantennad_repair_total{class=\"tour\"} %d\nantennad_repair_total{class=\"bats\"} %d\n",
		mm.RepairsEMST.Load(), mm.RepairsTour.Load(), mm.RepairsBats.Load()); err != nil {
		return err
	}
	verifyCounters := []struct {
		name, help string
		v          uint64
	}{
		{"antennad_verify_incremental_total", "revisions audited by the maintained incremental verifier", mm.VerifyIncremental.Load()},
		{"antennad_verify_incremental_rejects_total", "repairs rejected by the incremental verifier and re-solved in full", mm.VerifyIncrementalRejects.Load()},
		{"antennad_verify_incremental_audits_total", "periodic from-scratch audits of the maintained verdict (escape hatch)", mm.VerifyAudits.Load()},
		{"antennad_verify_incremental_divergence_total", "audits whose from-scratch verdict diverged from the maintained one", mm.VerifyAuditDivergence.Load()},
	}
	for _, c := range verifyCounters {
		if err := obs.WriteScalar(w, c.name, c.help, "counter", c.v); err != nil {
			return err
		}
	}
	if err := mm.DirtyFrac.Write(w, "antennad_instance_dirty_fraction", "fraction of sensors re-aimed per revision"); err != nil {
		return err
	}
	if err := mm.ChurnSeconds.Write(w, "antennad_instance_churn_seconds", "server-side latency of producing a revision"); err != nil {
		return err
	}
	if err := mm.RepairSeconds.Write(w, "antennad_instance_repair_seconds", "server-side latency of revisions served by incremental repair"); err != nil {
		return err
	}
	if err := mm.WALSyncSeconds.Write(w, "antennad_instance_wal_sync_seconds", "WAL fsync durations"); err != nil {
		return err
	}
	instances := m.List()
	if err := obs.WriteScalar(w, "antennad_instances", "live instances", "gauge", uint64(len(instances))); err != nil {
		return err
	}
	// Per-instance labeled families: one HELP/TYPE block per family,
	// samples grouped under it (interleaving families per instance is
	// invalid exposition).
	perInstance := []struct {
		name, help, kind string
		value            func(s Summary) uint64
	}{
		{"antennad_instance_revision", "current revision per live instance", "gauge", func(s Summary) uint64 { return s.Rev }},
		{"antennad_instance_sensors", "sensor count per live instance", "gauge", func(s Summary) uint64 { return uint64(s.N) }},
		{"antennad_instance_repaired_total", "revisions served by incremental repair per live instance", "counter", func(s Summary) uint64 { return s.Repairs }},
		{"antennad_instance_resolved_total", "revisions served by a full solve per live instance", "counter", func(s Summary) uint64 { return s.Fulls }},
	}
	for _, f := range perInstance {
		if len(instances) == 0 {
			continue // a family with no samples is a lint violation
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		for _, s := range instances {
			if _, err := fmt.Fprintf(w, "%s{instance=%q} %d\n", f.name, s.ID, f.value(s)); err != nil {
				return err
			}
		}
	}
	return nil
}
