// Package fleet is the soak harness behind cmd/fleetsim: it drives the
// orientation service the way a production fleet would — hundreds to
// thousands of live instances across the generator families, mixed
// /orient + instance PATCH/GET/delta traffic with configurable arrival
// rates, deadline distributions, If-Match contention, delete/re-create
// churn, and mid-soak kill/recover cycles that exercise WAL recovery —
// and distills the run into a machine-readable Report (BENCH_fleet.json
// row): p50/p99/p999 latency per endpoint, 409/429/503 rates, cache and
// repair hit ratios, and recovery-correctness counts. The engine and the
// instance manager run in this process, so a -race build soaks the
// whole stack under the race detector; the wire path and a real SIGKILL
// are the benchmark's job (bench/).
package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/instance"
	"repro/internal/pointset"
	"repro/internal/service"
)

// Config shapes a soak run. The zero value is not runnable; Defaults
// are applied by Run (documented per field).
type Config struct {
	// Instances sizes the long-lived fleet (default 64).
	Instances int
	// N is the sensor count per instance and per orient request
	// (default 120 — small enough that thousands of instances churn in
	// seconds, large enough that repair beats re-solve).
	N int
	// Duration is total traffic time, split evenly across kill cycles
	// (default 10s).
	Duration time.Duration
	// Workers is the number of concurrent traffic generators (default 8).
	Workers int
	// Seed makes the run deterministic modulo scheduling (default 1).
	Seed int64
	// OpsPerSec throttles the global arrival rate; 0 = unthrottled.
	OpsPerSec float64
	// KillCycles is how many mid-soak kill/recover cycles run (default 1;
	// 0 disables). Each closes the instance manager with traffic
	// quiesced and replays its WAL into a fresh one, so cycles need
	// WALDir; without it the soak runs none.
	KillCycles int
	// MaxInflight bounds concurrently in-flight orient calls on the
	// client side, shedding the excess like the server's 429 path
	// (0 = unbounded).
	MaxInflight int
	// StaleIfMatchPct is the percentage of patches sent with a
	// deliberately stale If-Match, expecting 409 (default 5).
	StaleIfMatchPct int
	// ShortDeadlinePct is the percentage of operations run under
	// ShortDeadline, expecting 503-class expiry (default 2).
	ShortDeadlinePct int
	// Deadline is the per-operation ceiling for normal traffic
	// (default 30s; expiry under it counts as unexpected).
	Deadline time.Duration
	// ShortDeadline is the injected tight deadline (default 2ms).
	ShortDeadline time.Duration
	// History bounds retained revisions per instance (default 4, keeping
	// thousand-instance fleets in memory).
	History int
	// WOrient/WPatch/WGet/WDelta/WChurn weight the traffic mix
	// (defaults 20/40/20/15/5). WChurn is delete + re-create of the same
	// id — the lifecycle race soak.
	WOrient, WPatch, WGet, WDelta, WChurn int
	// WALDir roots the instance WAL (empty disables durability and kill
	// cycles).
	WALDir string
	// StoreDir roots the durable artifact store (empty = memory cache
	// only). StoreBytes caps it (0 = solution.DefaultStoreBytes).
	StoreDir   string
	StoreBytes int64
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

// churnPool sizes the id pool the delete/re-create slice hammers.
func (c Config) churnPool() int {
	if p := c.Instances / 16; p > 4 {
		return p
	}
	return 4
}

func (c *Config) defaults() {
	if c.Instances <= 0 {
		c.Instances = 64
	}
	if c.N <= 0 {
		c.N = 120
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.KillCycles < 0 {
		c.KillCycles = 0
	}
	if c.StaleIfMatchPct < 0 || c.StaleIfMatchPct > 100 {
		c.StaleIfMatchPct = 5
	}
	if c.ShortDeadlinePct < 0 || c.ShortDeadlinePct > 100 {
		c.ShortDeadlinePct = 2
	}
	if c.Deadline <= 0 {
		c.Deadline = 30 * time.Second
	}
	if c.ShortDeadline <= 0 {
		c.ShortDeadline = 2 * time.Millisecond
	}
	if c.History <= 0 {
		c.History = 4
	}
	if c.WOrient+c.WPatch+c.WGet+c.WDelta+c.WChurn <= 0 {
		c.WOrient, c.WPatch, c.WGet, c.WDelta, c.WChurn = 20, 40, 20, 15, 5
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// budgets are the two instance families the fleet mixes: EMST-local
// cover budgets (k=2, φ=6π/5 — the incremental-repair fast path) and
// tworay (k=2, φ=0 — strong connectivity, full-solve repairs).
func budgetFor(i int) (k int, phi float64, algo string) {
	if i%4 == 3 {
		return 2, 0, "tworay"
	}
	return 2, core.Phi2Full, "cover"
}

// fleetID names a long-lived instance; churnID names one of the
// delete/re-create pool.
func fleetID(i int) string { return fmt.Sprintf("fleet-%05d", i) }
func churnID(i int) string { return fmt.Sprintf("churn-%03d", i) }

// run carries one soak's moving parts.
type run struct {
	cfg   Config
	drv   *driver
	acks  map[string]*oracle
	seen  map[string]map[uint64]bool // fleet ids: patch revs already acked (duplicate = monotonicity break)
	seenM sync.Mutex

	freshSeed atomic.Int64
	inflight  chan struct{}

	unexpM      sync.Mutex
	unexpSample []string

	recovery RecoveryStats
	dupRevs  atomic.Uint64
}

// Run executes the soak and returns its report. The context bounds the
// whole run: cancelling it stops traffic at the next operation.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg.defaults()
	drv, err := newDriver(cfg)
	if err != nil {
		return nil, err
	}
	r := &run{
		cfg:  cfg,
		drv:  drv,
		acks: make(map[string]*oracle, cfg.Instances+cfg.churnPool()),
		seen: make(map[string]map[uint64]bool, cfg.Instances),
	}
	if cfg.MaxInflight > 0 {
		r.inflight = make(chan struct{}, cfg.MaxInflight)
	}
	r.freshSeed.Store(cfg.Seed * 1_000_003)
	for i := 0; i < cfg.Instances; i++ {
		r.acks[fleetID(i)] = &oracle{}
		r.seen[fleetID(i)] = make(map[uint64]bool)
	}
	for i := 0; i < cfg.churnPool(); i++ {
		r.acks[churnID(i)] = &oracle{}
	}
	defer drv.Close()

	// The runtime sampler brackets exactly the soak (fleet build through
	// last phase), so heap growth and GC pauses in the report belong to
	// the traffic, not to setup or teardown.
	sampler := newRuntimeSampler()
	recs, elapsed, err := r.soak(ctx)
	if err != nil {
		sampler.Stop()
		return nil, err
	}
	rep := r.report(recs, elapsed)
	r.attachServerStats(rep)
	rep.Runtime = sampler.Stop()
	return rep, nil
}

// soak is the phase loop: build the fleet, then alternate traffic
// phases with kill/recover audits.
func (r *run) soak(ctx context.Context) ([]*recorder, time.Duration, error) {
	cfg := r.cfg
	recs := make([]*recorder, cfg.Workers)
	for i := range recs {
		recs[i] = &recorder{}
	}
	begin := time.Now()
	if err := r.buildFleet(ctx, recs); err != nil {
		return nil, 0, err
	}
	cycles := cfg.KillCycles
	if cycles > 0 && cfg.WALDir == "" {
		r.cfg.Logf("fleet: no -wal-dir; kill cycles disabled")
		cycles = 0
	}
	phases := cycles + 1
	phaseDur := cfg.Duration / time.Duration(phases)
	for phase := 0; phase < phases; phase++ {
		r.cfg.Logf("fleet: phase %d/%d: %v of traffic across %d workers", phase+1, phases, phaseDur.Round(time.Millisecond), cfg.Workers)
		r.trafficPhase(ctx, recs, phaseDur, phase)
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		if phase < phases-1 {
			if err := r.killRecover(ctx); err != nil {
				return nil, 0, err
			}
		}
	}
	return recs, time.Since(begin), nil
}

// buildFleet creates every long-lived instance (and seeds the churn
// pool), fanned across the workers; create latencies are part of the
// recorded mix.
func (r *run) buildFleet(ctx context.Context, recs []*recorder) error {
	cfg := r.cfg
	names := pointset.WorkloadNames()
	ids := make(chan int, cfg.Instances+cfg.churnPool())
	for i := 0; i < cfg.Instances+cfg.churnPool(); i++ {
		ids <- i
	}
	close(ids)
	var wg sync.WaitGroup
	var firstErr atomic.Value
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(rec *recorder) {
			defer wg.Done()
			for i := range ids {
				if ctx.Err() != nil {
					return
				}
				id := fleetID(i)
				if i >= cfg.Instances {
					id = churnID(i - cfg.Instances)
				}
				k, phi, algo := budgetFor(i)
				spec := genSpec{
					Workload: names[i%len(names)], N: cfg.N,
					Seed: cfg.Seed*1_000_000 + int64(i),
					K:    k, Phi: phi, Algo: algo,
				}
				opCtx, cancel := context.WithTimeout(ctx, cfg.Deadline)
				t0 := time.Now()
				rev, n, err := r.drv.Create(opCtx, id, spec)
				cancel()
				o := classify(err)
				if o == outcomeOK {
					r.acks[id].ackCreate(rev, n)
				} else if o != outcomeRace {
					o = outcomeUnexpected
					r.noteUnexpected("create", id, err)
					firstErr.CompareAndSwap(nil, err)
				}
				rec.note(opCreate, time.Since(t0), o)
			}
		}(recs[w])
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		return fmt.Errorf("fleet: building the fleet failed: %w", err)
	}
	r.cfg.Logf("fleet: %d instances created", cfg.Instances+cfg.churnPool())
	return ctx.Err()
}

// trafficPhase runs the mixed workload for one phase and quiesces.
func (r *run) trafficPhase(ctx context.Context, recs []*recorder, dur time.Duration, phase int) {
	var wg sync.WaitGroup
	deadline := time.Now().Add(dur)
	for w := 0; w < r.cfg.Workers; w++ {
		wg.Add(1)
		go func(w int, rec *recorder) {
			defer wg.Done()
			r.workerLoop(ctx, rec, rand.New(rand.NewSource(r.cfg.Seed+int64(phase*1000+w))), deadline)
		}(w, recs[w])
	}
	wg.Wait()
}

// workerLoop issues operations until the phase deadline.
func (r *run) workerLoop(ctx context.Context, rec *recorder, rng *rand.Rand, deadline time.Time) {
	cfg := r.cfg
	wTotal := cfg.WOrient + cfg.WPatch + cfg.WGet + cfg.WDelta + cfg.WChurn
	var interval time.Duration
	if cfg.OpsPerSec > 0 {
		interval = time.Duration(float64(cfg.Workers) / cfg.OpsPerSec * float64(time.Second))
	}
	for time.Now().Before(deadline) && ctx.Err() == nil {
		pick := rng.Intn(wTotal)
		switch {
		case pick < cfg.WOrient:
			r.doOrient(ctx, rec, rng)
		case pick < cfg.WOrient+cfg.WPatch:
			r.doPatch(ctx, rec, rng)
		case pick < cfg.WOrient+cfg.WPatch+cfg.WGet:
			r.doGet(ctx, rec, rng)
		case pick < cfg.WOrient+cfg.WPatch+cfg.WGet+cfg.WDelta:
			r.doDelta(ctx, rec, rng)
		default:
			r.doChurn(ctx, rec, rng)
		}
		if interval > 0 {
			time.Sleep(time.Duration(float64(interval) * (0.5 + rng.Float64())))
		}
	}
}

// opCtx builds one operation's context; short reports whether this
// operation drew the injected tight deadline (its 503 is expected).
func (r *run) opCtx(ctx context.Context, rng *rand.Rand) (context.Context, context.CancelFunc, bool) {
	if rng.Intn(100) < r.cfg.ShortDeadlinePct {
		c, cancel := context.WithTimeout(ctx, r.cfg.ShortDeadline)
		return c, cancel, true
	}
	c, cancel := context.WithTimeout(ctx, r.cfg.Deadline)
	return c, cancel, false
}

// finish classifies and records one operation.
func (r *run) finish(rec *recorder, k opKind, t0 time.Time, err error, short bool, id string) {
	o := classify(err)
	if o == outcomeDeadline && !short {
		// A 503 nobody injected is a stall, not an expected shed.
		o = outcomeUnexpected
	}
	if o == outcomeUnexpected {
		r.noteUnexpected(k.String(), id, err)
	}
	rec.note(k, time.Since(t0), o)
}

// orientPoolSize is how many distinct orient requests the hot pool
// cycles — repeats hit the cache tiers, giving the soak a realistic
// hit ratio alongside the fresh-solve slice.
const orientPoolSize = 32

func (r *run) doOrient(ctx context.Context, rec *recorder, rng *rand.Rand) {
	cfg := r.cfg
	if r.inflight != nil {
		select {
		case r.inflight <- struct{}{}:
			defer func() { <-r.inflight }()
		default:
			rec.note(opOrient, 0, outcomeShed)
			return
		}
	}
	names := pointset.WorkloadNames()
	var g genSpec
	if rng.Intn(4) > 0 { // 75%: hot pool → cache hits
		pi := rng.Intn(orientPoolSize)
		k, phi, algo := budgetFor(pi)
		g = genSpec{Workload: names[pi%len(names)], N: cfg.N, Seed: cfg.Seed*7919 + int64(pi), K: k, Phi: phi, Algo: algo}
	} else { // 25%: fresh seed → computed miss
		k, phi, algo := budgetFor(rng.Intn(4))
		g = genSpec{Workload: names[rng.Intn(len(names))], N: cfg.N, Seed: r.freshSeed.Add(1), K: k, Phi: phi, Algo: algo}
	}
	// The deployment is built before the clock starts, so the client
	// times the same Solve call the engine's /orient histograms observe.
	req := service.Request{Pts: genPoints(g), K: g.K, Phi: g.Phi, Algo: g.Algo}
	opCtx, cancel, short := r.opCtx(ctx, rng)
	defer cancel()
	t0 := time.Now()
	_, src, err := r.drv.eng.Solve(opCtx, req)
	if err == nil {
		switch src {
		case service.SourceMemory:
			rec.cacheMem++
		case service.SourceDisk:
			rec.cacheDisk++
		default:
			rec.cacheMiss++
		}
	}
	r.finish(rec, opOrient, t0, err, short, "")
}

// deploySide matches the pointset generator families' coordinate scale,
// so churned sensors land inside the deployment area.
const deploySide = 12

// churnOps builds one mutation batch from the dynamics churn model.
// Most batches are steady-state living-network churn (2 drifts, 1 join,
// 1 failure); roughly one in eight is a failure wave with replacements
// (3 die, 3 join — the scenario harness's kill-wave shape). Either way
// joins == fails, so the instance's sensor count is invariant and index
// bounds stay valid under concurrent batches.
func churnOps(rng *rand.Rand, n int) []instance.Op {
	if rng.Intn(8) == 0 {
		return dynamics.ChurnBatch(rng, n, 0, 3, 3, deploySide)
	}
	return dynamics.ChurnBatch(rng, n, 2, 1, 1, deploySide)
}

func (r *run) doPatch(ctx context.Context, rec *recorder, rng *rand.Rand) {
	id := fleetID(rng.Intn(r.cfg.Instances))
	o := r.acks[id]
	_, acked := o.state()
	bound := o.size()
	if bound < 1 {
		// The create never succeeded; nothing to mutate.
		r.doGet(ctx, rec, rng)
		return
	}
	var ifMatch uint64
	stale := false
	if acked > 1 && rng.Intn(100) < r.cfg.StaleIfMatchPct {
		ifMatch, stale = acked-1, true // guaranteed stale: revisions only grow
	}
	opCtx, cancel, short := r.opCtx(ctx, rng)
	defer cancel()
	t0 := time.Now()
	rev, repair, err := r.drv.Patch(opCtx, id, ifMatch, churnOps(rng, bound))
	if err == nil {
		switch repair {
		case instance.RepairIncremental:
			rec.repairInc++
		case instance.RepairFull:
			rec.repairFull++
		}
		o.ack(rev)
		r.seenM.Lock()
		if r.seen[id][rev] {
			r.dupRevs.Add(1)
		}
		r.seen[id][rev] = true
		r.seenM.Unlock()
		if stale {
			// A stale If-Match that succeeded means optimistic concurrency
			// broke.
			r.noteUnexpected("patch", id, fmt.Errorf("stale If-Match %d accepted as rev %d", ifMatch, rev))
			rec.note(opPatch, time.Since(t0), outcomeUnexpected)
			return
		}
	}
	r.finish(rec, opPatch, t0, err, short, id)
}

func (r *run) doGet(ctx context.Context, rec *recorder, rng *rand.Rand) {
	id := fleetID(rng.Intn(r.cfg.Instances))
	opCtx, cancel, short := r.opCtx(ctx, rng)
	defer cancel()
	t0 := time.Now()
	_, err := r.drv.Get(opCtx, id)
	r.finish(rec, opGet, t0, err, short, id)
}

func (r *run) doDelta(ctx context.Context, rec *recorder, rng *rand.Rand) {
	id := fleetID(rng.Intn(r.cfg.Instances))
	_, acked := r.acks[id].state()
	if acked < 2 {
		// Revision 1 has no delta base; read the full artifact instead.
		r.doGet(ctx, rec, rng)
		return
	}
	opCtx, cancel, short := r.opCtx(ctx, rng)
	defer cancel()
	t0 := time.Now()
	err := r.drv.Delta(opCtx, id, acked)
	r.finish(rec, opDelta, t0, err, short, id)
}

// doChurn deletes and re-creates one id of the churn pool — the
// lifecycle slice that soaks the Delete/Apply/Create-same-id paths.
func (r *run) doChurn(ctx context.Context, rec *recorder, rng *rand.Rand) {
	i := rng.Intn(r.cfg.churnPool())
	id := churnID(i)
	opCtx, cancel, short := r.opCtx(ctx, rng)
	t0 := time.Now()
	err := r.drv.Delete(opCtx, id)
	cancel()
	if err == nil {
		r.acks[id].dead()
	}
	r.finish(rec, opDelete, t0, err, short, id)

	k, phi, algo := budgetFor(i)
	names := pointset.WorkloadNames()
	spec := genSpec{
		Workload: names[i%len(names)], N: r.cfg.N,
		Seed: r.cfg.Seed*1_000_000 + int64(r.cfg.Instances+i),
		K:    k, Phi: phi, Algo: algo,
	}
	opCtx, cancel, short = r.opCtx(ctx, rng)
	t0 = time.Now()
	rev, n, err := r.drv.Create(opCtx, id, spec)
	cancel()
	if err == nil {
		r.acks[id].ackCreate(rev, n)
	}
	r.finish(rec, opCreate, t0, err, short, id)
}

// resyncChurn re-reads the churn pool's authoritative state: the
// delete/re-create slice races workers against each other, so the last
// worker-side ack for an id may not be its serialized end state.
func (r *run) resyncChurn(ctx context.Context) {
	for i := 0; i < r.cfg.churnPool(); i++ {
		id := churnID(i)
		rev, err := r.drv.Get(ctx, id)
		switch classify(err) {
		case outcomeOK:
			r.acks[id].mu.Lock()
			r.acks[id].live, r.acks[id].rev = true, rev
			r.acks[id].mu.Unlock()
		case outcomeRace:
			r.acks[id].dead()
		default:
			r.noteUnexpected("resync", id, err)
		}
	}
}

// killRecover quiesces, crashes the backend, recovers it, and audits:
// every id acknowledged live must come back at exactly its acknowledged
// revision; every acknowledged deletion must stay deleted.
func (r *run) killRecover(ctx context.Context) error {
	r.resyncChurn(ctx)
	r.cfg.Logf("fleet: kill/recover cycle %d", r.recovery.Cycles+1)
	if err := r.drv.Kill(); err != nil {
		return fmt.Errorf("fleet: kill: %w", err)
	}
	n, err := r.drv.Recover(ctx)
	if err != nil {
		return fmt.Errorf("fleet: recover: %w", err)
	}
	r.recovery.Cycles++
	r.recovery.Recovered = n
	for id, o := range r.acks {
		live, acked := o.state()
		rev, err := r.drv.Get(ctx, id)
		if live {
			if err != nil || rev != acked {
				r.recovery.RevLosses++
				r.noteUnexpected("recovery", id, fmt.Errorf("acknowledged rev %d, recovered rev %d (err %v)", acked, rev, err))
			}
		} else if err == nil {
			r.recovery.Phantoms++
			r.noteUnexpected("recovery", id, fmt.Errorf("deleted id recovered at rev %d", rev))
		}
	}
	r.cfg.Logf("fleet: recovered %d instances (losses %d, phantoms %d)", n, r.recovery.RevLosses, r.recovery.Phantoms)
	return nil
}

// noteUnexpected keeps a bounded sample of soak failures for the
// report.
func (r *run) noteUnexpected(op, id string, err error) {
	r.unexpM.Lock()
	if len(r.unexpSample) < 8 {
		r.unexpSample = append(r.unexpSample, fmt.Sprintf("%s %s: %v", op, id, err))
	}
	r.unexpM.Unlock()
}

// report assembles the run's BENCH_fleet.json row.
func (r *run) report(recs []*recorder, elapsed time.Duration) *Report {
	endpoints, totals := merged(recs, elapsed)
	var cache CacheStats
	var rep RepairStats
	for _, rec := range recs {
		cache.MemoryHits += rec.cacheMem
		cache.DiskHits += rec.cacheDisk
		cache.Misses += rec.cacheMiss
		rep.Incremental += rec.repairInc
		rep.Full += rec.repairFull
	}
	cache.HitRatio = ratio(cache.MemoryHits+cache.DiskHits, cache.MemoryHits+cache.DiskHits+cache.Misses)
	rep.IncrementalRatio = ratio(rep.Incremental, rep.Incremental+rep.Full)
	totals.Unexpected += r.dupRevs.Load()
	cfg := r.cfg
	return &Report{
		Schema:    Schema,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		GoOS:      runtime.GOOS,
		GoArch:    runtime.GOARCH,
		GoMaxProc: runtime.GOMAXPROCS(0),
		Race:      raceEnabled,
		Config: ReportConfig{
			Mode: "inproc", Instances: cfg.Instances, SensorsPerInst: cfg.N,
			DurationSec: cfg.Duration.Seconds(), Workers: cfg.Workers, Seed: cfg.Seed,
			KillCycles: r.recovery.Cycles, MaxInflight: cfg.MaxInflight,
			StaleIfMatchPct: cfg.StaleIfMatchPct, ShortDeadlinePct: cfg.ShortDeadlinePct,
			WALSync: walSyncName(cfg),
		},
		Endpoints:         endpoints,
		Totals:            totals,
		Cache:             cache,
		Repair:            rep,
		Recovery:          r.recovery,
		UnexpectedSamples: r.UnexpectedSamples(),
	}
}

// walSyncName reports the durability policy the soak ran under.
func walSyncName(cfg Config) string {
	if cfg.WALDir == "" {
		return "none"
	}
	return string(instance.SyncAlways)
}

// UnexpectedSamples exposes the bounded failure sample (tests, CLI).
func (r *run) UnexpectedSamples() []string {
	r.unexpM.Lock()
	defer r.unexpM.Unlock()
	return append([]string(nil), r.unexpSample...)
}
