package fleet

// Server-side latency view (fleet/v2): after the soak, the report reads
// the engine's and the manager's own latency histograms and places
// their quantiles next to the client-observed ones. The two views
// measure the same operations from opposite ends of the call, so a
// large disagreement (client p50 more than 2x off the server p50, in
// either direction) flags a measurement problem; the check only fires
// once both sides have enough samples.

import (
	"fmt"
	"math"

	"repro/internal/obs"
)

// ServerStats is the backend's own latency view of the soak.
type ServerStats struct {
	// Orient merges the hit and solve histograms — every /orient the
	// engine answered; instance solves stay out of it. Churn is the
	// instance revision latency (the PATCH path), Repair the
	// incremental-repair slice of it, WALSync the fsync distribution.
	Orient  *ServerDist `json:"orient,omitempty"`
	Churn   *ServerDist `json:"churn,omitempty"`
	Repair  *ServerDist `json:"repair,omitempty"`
	WALSync *ServerDist `json:"wal_sync,omitempty"`
	// Disagreements lists client-vs-server p50 mismatches beyond 2x.
	Disagreements []string `json:"disagreements,omitempty"`
}

// ServerDist compresses one histogram snapshot into the report row.
// Quantiles are bucket-upper-edge nearest-rank — coarser than the
// client's sorted-sample quantiles, which is why the disagreement
// threshold is a generous 2x.
type ServerDist struct {
	Count uint64  `json:"count"`
	P50ms float64 `json:"p50_ms"`
	P99ms float64 `json:"p99_ms"`
}

// serverDist renders one snapshot, or nil when it holds no samples.
func serverDist(s obs.HistogramSnapshot) *ServerDist {
	if s.Count == 0 {
		return nil
	}
	return &ServerDist{
		Count: s.Count,
		P50ms: round3(s.Quantile(0.50) * 1000),
		P99ms: round3(s.Quantile(0.99) * 1000),
	}
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// minDisagreeSamples is the per-side sample floor below which the
// client-vs-server comparison stays silent (quantiles of a handful of
// operations disagree for free).
const minDisagreeSamples = 32

// disagreement compares a client p50 against a server distribution and
// reports the mismatch when they differ by more than 2x either way.
func disagreement(label string, clientCount uint64, clientP50ms float64, d *ServerDist) string {
	if d == nil || d.Count < minDisagreeSamples || clientCount < minDisagreeSamples {
		return ""
	}
	if clientP50ms <= 0 || d.P50ms <= 0 {
		return ""
	}
	r := clientP50ms / d.P50ms
	if r < 1 {
		r = 1 / r
	}
	if r <= 2 {
		return ""
	}
	return fmt.Sprintf("%s: client p50 %.3fms vs server p50 %.3fms (>2x apart)", label, clientP50ms, d.P50ms)
}

// attachServerStats fills Report.Server from the engine's and the
// manager's histograms. The manager's live on the manager a
// kill/recover cycle replaces, so in killed runs the churn figures
// cover the final phase only; the engine's survive the run.
func (r *run) attachServerStats(rep *Report) {
	em := r.drv.eng.Metrics()
	im := r.drv.manager().Metrics()
	orient, err := em.SolveSeconds.Snapshot().Merge(em.HitSeconds.Snapshot())
	if err != nil {
		r.cfg.Logf("fleet: cannot merge hit+solve histograms: %v", err)
	}
	st := &ServerStats{
		Orient:  serverDist(orient),
		Churn:   serverDist(im.ChurnSeconds.Snapshot()),
		Repair:  serverDist(im.RepairSeconds.Snapshot()),
		WALSync: serverDist(im.WALSyncSeconds.Snapshot()),
	}

	for _, c := range []struct {
		label  string
		client EndpointStats
		server *ServerDist
	}{
		{"orient", rep.Endpoints["orient"], st.Orient},
		{"patch", rep.Endpoints["patch"], st.Churn},
	} {
		if msg := disagreement(c.label, c.client.Count, c.client.P50ms, c.server); msg != "" {
			st.Disagreements = append(st.Disagreements, msg)
			r.cfg.Logf("fleet: latency disagreement — %s", msg)
		}
	}
	rep.Server = st
}
