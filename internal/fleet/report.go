package fleet

import (
	"math"
	"sort"
	"sync"
	"time"
)

// Schema identifies the BENCH_fleet.json row format. Bump it when a
// field changes meaning; cmd/benchjson -check-fleet rejects rows whose
// schema it does not know. fleet/v2 adds the optional server-side
// histogram summaries (Report.Server); v1 rows remain valid.
const (
	Schema   = "fleet/v2"
	SchemaV1 = "fleet/v1"
)

// Report is one soak run's machine-readable result — the row appended
// to BENCH_fleet.json. Latencies are milliseconds; rates are fractions
// of that endpoint's (or the run's) operation count.
type Report struct {
	Schema    string `json:"schema"`
	Timestamp string `json:"timestamp"`
	GoOS      string `json:"goos"`
	GoArch    string `json:"goarch"`
	GoMaxProc int    `json:"gomaxprocs"`
	Race      bool   `json:"race"`

	Config ReportConfig `json:"config"`

	// Endpoints maps orient/create/patch/get/delta/delete to their
	// latency and error profile.
	Endpoints map[string]EndpointStats `json:"endpoints"`

	Totals   Totals        `json:"totals"`
	Cache    CacheStats    `json:"cache"`
	Repair   RepairStats   `json:"repair"`
	Recovery RecoveryStats `json:"recovery"`

	// Runtime profiles the Go runtime over the soak (heap growth, GC
	// pauses); optional so rows written by earlier revisions still
	// validate.
	Runtime *RuntimeStats `json:"runtime,omitempty"`

	// Server holds the backend's own latency histograms read after the
	// run (fleet/v2), next to the client-observed latencies above. Every
	// v2 writer fills it; v1 rows predate the field.
	Server *ServerStats `json:"server,omitempty"`

	// UnexpectedSamples holds up to 8 of the run's unexpected failures,
	// verbatim, so a red soak is debuggable from its report alone.
	UnexpectedSamples []string `json:"unexpected_samples,omitempty"`
}

// ReportConfig echoes the knobs that shaped the run, so a trajectory
// of rows stays interpretable.
type ReportConfig struct {
	// Mode is always "inproc"; it stays so rows written when the soak
	// also had an HTTP transport keep decoding strictly.
	Mode             string  `json:"mode"`
	Instances        int     `json:"instances"`
	SensorsPerInst   int     `json:"sensors_per_instance"`
	DurationSec      float64 `json:"duration_sec"`
	Workers          int     `json:"workers"`
	Seed             int64   `json:"seed"`
	KillCycles       int     `json:"kill_cycles"`
	MaxInflight      int     `json:"max_inflight"`
	StaleIfMatchPct  int     `json:"stale_ifmatch_pct"`
	ShortDeadlinePct int     `json:"short_deadline_pct"`
	WALSync          string  `json:"wal_sync"`
}

// EndpointStats is one endpoint's latency and outcome profile.
type EndpointStats struct {
	Count  uint64  `json:"count"`
	P50ms  float64 `json:"p50_ms"`
	P99ms  float64 `json:"p99_ms"`
	P999ms float64 `json:"p999_ms"`
	MaxMS  float64 `json:"max_ms"`
	// Expected outcomes injected by the mix: conflicts from stale
	// If-Match, sheds from the inflight bound, deadline 503s from the
	// short-deadline slice, benign races (not-found/exists/evicted)
	// from delete/create churn.
	Conflicts  uint64 `json:"conflicts"`
	Sheds      uint64 `json:"sheds"`
	Deadlines  uint64 `json:"deadlines"`
	RaceErrors uint64 `json:"race_errors"`
	// Unexpected is everything else — the soak's failure signal.
	Unexpected uint64 `json:"unexpected"`
}

// Totals aggregates the run: operation count, operations per second,
// and the global 409/429/503/unexpected rates the ISSUE asks for.
type Totals struct {
	Ops             uint64  `json:"ops"`
	OpsPerSec       float64 `json:"ops_per_sec"`
	ConflictRate    float64 `json:"conflict_409_rate"`
	ShedRate        float64 `json:"shed_429_rate"`
	UnavailableRate float64 `json:"unavailable_503_rate"`
	UnexpectedRate  float64 `json:"unexpected_error_rate"`
	Unexpected      uint64  `json:"unexpected_errors"`
}

// CacheStats reports how the orient slice of the mix hit the tiers.
type CacheStats struct {
	MemoryHits uint64  `json:"memory_hits"`
	DiskHits   uint64  `json:"disk_hits"`
	Misses     uint64  `json:"misses"`
	HitRatio   float64 `json:"hit_ratio"`
}

// RepairStats reports how mutation batches were absorbed.
type RepairStats struct {
	Incremental      uint64  `json:"incremental"`
	Full             uint64  `json:"full"`
	IncrementalRatio float64 `json:"incremental_ratio"`
}

// RecoveryStats reports the mid-soak kill/recover audits: every id the
// oracle saw acknowledged live must recover at exactly its acknowledged
// revision (a lower one is a lost acknowledged revision, a recovered
// deleted id is a phantom).
type RecoveryStats struct {
	Cycles    int `json:"cycles"`
	Recovered int `json:"recovered"`
	RevLosses int `json:"rev_losses"`
	Phantoms  int `json:"phantoms"`
}

// opKind indexes the per-endpoint recorders.
type opKind int

const (
	opOrient opKind = iota
	opCreate
	opPatch
	opGet
	opDelta
	opDelete
	opKinds
)

// String names the endpoint as reported in BENCH_fleet.json.
func (k opKind) String() string {
	return [...]string{"orient", "create", "patch", "get", "delta", "delete"}[k]
}

// outcome classifies one operation's result for the recorder.
type outcome int

const (
	outcomeOK outcome = iota
	outcomeConflict
	outcomeShed
	outcomeDeadline
	outcomeRace
	outcomeUnexpected
)

// recorder accumulates one worker's latencies and outcomes; workers
// each own one, merged after the run, so the hot path never contends.
type recorder struct {
	lat  [opKinds][]time.Duration
	outc [opKinds][6]uint64
	// Cache-tier sources observed on successful orients and repair modes
	// observed on successful patches, folded into CacheStats/RepairStats.
	cacheMem, cacheDisk, cacheMiss uint64
	repairInc, repairFull          uint64
}

func (r *recorder) note(k opKind, d time.Duration, o outcome) {
	r.lat[k] = append(r.lat[k], d)
	r.outc[k][o]++
}

// merged folds per-worker recorders into per-endpoint stats.
func merged(recs []*recorder, elapsed time.Duration) (map[string]EndpointStats, Totals) {
	endpoints := make(map[string]EndpointStats, opKinds)
	var tot Totals
	var conflicts, sheds, deadlines uint64
	for k := opKind(0); k < opKinds; k++ {
		var all []time.Duration
		var st EndpointStats
		for _, r := range recs {
			all = append(all, r.lat[k]...)
			st.Conflicts += r.outc[k][outcomeConflict]
			st.Sheds += r.outc[k][outcomeShed]
			st.Deadlines += r.outc[k][outcomeDeadline]
			st.RaceErrors += r.outc[k][outcomeRace]
			st.Unexpected += r.outc[k][outcomeUnexpected]
		}
		st.Count = uint64(len(all))
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		st.P50ms = ms(percentile(all, 0.50))
		st.P99ms = ms(percentile(all, 0.99))
		st.P999ms = ms(percentile(all, 0.999))
		if n := len(all); n > 0 {
			st.MaxMS = ms(all[n-1])
		}
		endpoints[k.String()] = st
		tot.Ops += st.Count
		tot.Unexpected += st.Unexpected
		conflicts += st.Conflicts
		sheds += st.Sheds
		deadlines += st.Deadlines
	}
	if tot.Ops > 0 {
		tot.ConflictRate = float64(conflicts) / float64(tot.Ops)
		tot.ShedRate = float64(sheds) / float64(tot.Ops)
		tot.UnavailableRate = float64(deadlines) / float64(tot.Ops)
		tot.UnexpectedRate = float64(tot.Unexpected) / float64(tot.Ops)
	}
	if s := elapsed.Seconds(); s > 0 {
		tot.OpsPerSec = round2(float64(tot.Ops) / s)
	}
	return endpoints, tot
}

// percentile reads the q-quantile from an ascending slice (nearest-rank).
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// ms renders a duration as fractional milliseconds, rounded to 3
// decimals so BENCH_fleet.json diffs stay readable.
func ms(d time.Duration) float64 {
	return math.Round(float64(d)/float64(time.Millisecond)*1000) / 1000
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }

func ratio(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return math.Round(float64(part)/float64(whole)*10000) / 10000
}

// oracle is the soak's acknowledgment ledger for one instance id: the
// highest revision a call acknowledged and whether the id's
// last acknowledged lifecycle operation left it live. The recovery
// audit replays this ledger against the restarted backend.
type oracle struct {
	mu   sync.Mutex
	live bool
	rev  uint64
	// n is the materialized sensor count from the id's create response;
	// mutation batches are balanced, so it stays the instance's size and
	// bounds the indices later batches may touch.
	n int
}

func (o *oracle) ack(rev uint64) {
	o.mu.Lock()
	o.live = true
	if rev > o.rev {
		o.rev = rev
	}
	o.mu.Unlock()
}

// ackCreate records a successful create: first revision plus size.
func (o *oracle) ackCreate(rev uint64, n int) {
	o.mu.Lock()
	o.live = true
	if rev > o.rev {
		o.rev = rev
	}
	o.n = n
	o.mu.Unlock()
}

func (o *oracle) size() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.n
}

func (o *oracle) dead() {
	o.mu.Lock()
	o.live = false
	o.rev = 0
	o.mu.Unlock()
}

func (o *oracle) state() (bool, uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.live, o.rev
}
