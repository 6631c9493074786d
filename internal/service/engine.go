// Package service is the orientation engine: the one code path from a
// request (point set + budget + objective or algorithm name) to a
// verified solution artifact. Every entry point — cmd/table1, cmd/sweep,
// cmd/antennactl in-process, and the cmd/antennad HTTP server — solves
// through Engine.Solve, which checks the two cache tiers (the in-memory
// byte-charged LRU, then the durable disk store that survives restarts),
// single-flights identical requests into one solve (a retry after every
// caller left joins the solve still running), plans via the orienter
// registry's declared guarantees (internal/plan), builds the point set's
// EMST once, orients each miss from that tree on the flight's own
// goroutine under the flight's context, audits the output with the
// independent verifier, and fills both tiers with the resulting
// artifact, content-addressed by (pointset digest, budget, selection
// mode). The HTTP surface (http.go) adds the request-lifecycle
// guardrails: bounded-inflight load shedding (429 + Retry-After) and
// per-request deadlines (503), with every counter exported on /metrics.
package service

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/antenna"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/instance"
	"repro/internal/mst"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/solution"
	"repro/internal/verify"
)

// Request is one orientation problem posed to the engine.
type Request struct {
	Pts []geom.Point
	K   int
	Phi float64
	// Algo names a registered orienter explicitly. When empty the
	// planner selects one for Objective.
	Algo string
	// Objective drives planner selection when Algo is empty. The zero
	// value asks for strong connectivity minimizing guaranteed stretch.
	Objective plan.Objective
}

// mode returns the cache-key selection mode of the request.
func (r Request) mode() string {
	if r.Algo != "" {
		return solution.AlgoMode(r.Algo)
	}
	return solution.ObjectiveMode(r.Objective.Key())
}

// CacheSource reports which tier served a Solve: the in-memory LRU
// (SourceMemory), the disk store surviving restarts (SourceDisk), or
// neither (SourceMiss — the artifact was computed, possibly shared with
// coalesced identical requests). The HTTP layer renders it verbatim in
// the X-Cache header.
type CacheSource int

const (
	// SourceMiss: the artifact was computed for this request.
	SourceMiss CacheSource = iota
	// SourceMemory: served from the in-memory LRU.
	SourceMemory
	// SourceDisk: served from the durable store (and promoted to L1).
	SourceDisk
)

// Hit reports whether either cache tier served the request.
func (s CacheSource) Hit() bool { return s != SourceMiss }

// String renders the source as the X-Cache header value.
func (s CacheSource) String() string {
	switch s {
	case SourceMemory:
		return "memory"
	case SourceDisk:
		return "disk"
	default:
		return "miss"
	}
}

// Options configure an Engine.
type Options struct {
	// CacheSize caps the artifact cache (≤ 0 selects the default).
	CacheSize int
	// CacheMaxBytes caps the in-memory tier by total encoded artifact
	// bytes (≤ 0 selects solution.DefaultCacheBytes).
	CacheMaxBytes int64
	// Store, when non-nil, is the durable L2 tier: memory misses fall
	// through to it, and computed artifacts are written back, so equal
	// requests stay byte-identical across process restarts.
	Store *solution.Store
	// Deadline, when positive, is the per-request ceiling the HTTP
	// layer imposes on /orient and on instance creates and PATCHes,
	// counted from the request's arrival; an expired request answers 503.
	Deadline time.Duration
	// MaxInflight, when positive, bounds concurrently served /orient
	// requests; excess requests are shed with 429 + Retry-After
	// instead of queueing without bound.
	MaxInflight int
	// DefaultRace, when positive, gives planner-selected requests that
	// did not ask for a racing deadline this one: the shortlist is run
	// on the instance and the best measured radius wins. The deadline
	// joins the objective's cache key, so raced and a-priori artifacts
	// never alias.
	DefaultRace time.Duration
	// RepairThreshold is the live-instance dirty fraction above which an
	// incremental repair falls back to a full solve (0 selects
	// instance.DefaultRepairThreshold; negative disables repair).
	RepairThreshold float64
	// InstanceHistory bounds retained revisions per live instance (≤ 0
	// selects instance.DefaultHistory).
	InstanceHistory int
	// VerifyAuditEvery is the incremental verifier's escape hatch: every
	// Nth repaired revision is re-checked by a from-scratch verification
	// pass (0 selects instance.DefaultVerifyAuditEvery; negative
	// disables the audit).
	VerifyAuditEvery int
	// InstanceWAL, when non-nil, makes the live-instance tier
	// crash-durable: creates and mutation batches are write-ahead logged
	// and replayed by Manager.Recover at startup (see internal/instance).
	InstanceWAL *instance.WALConfig
}

// Engine turns requests into verified solution artifacts.
type Engine struct {
	planner plan.Planner
	cache   *solution.Cache
	store   *solution.Store
	opts    Options
	metrics Metrics

	flightMu sync.Mutex
	flights  map[solution.Key]*flight
	// detached counts flights in the table that no caller waits for;
	// maxDetached bounds it (GOMAXPROCS, set by NewEngine). Both are
	// guarded by flightMu.
	detached    int
	maxDetached int

	// Negative cache: requests that failed deterministically (no
	// feasible orienter for the budget/objective) are remembered so a
	// hot loop of retries answers from memory instead of re-planning.
	negMu sync.Mutex
	neg   map[solution.Key]error
	negLL *list.List // front = most recent; evicts from the back
}

// negCacheCap bounds the negative cache; infeasible keys are tiny, so a
// few thousand cover any realistic churn of bad budgets.
const negCacheCap = 4096

// InfeasibleError marks a request that can never succeed at its budget:
// the planner found no orienter whose guarantee satisfies the objective,
// or the explicitly named orienter rejects the (k, φ) region. The
// outcome is a pure function of the request, so the engine caches it
// negatively and answers repeats without re-planning.
type InfeasibleError struct {
	// Err is the underlying planner or registry error.
	Err error
}

// Error renders the underlying error.
func (e *InfeasibleError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *InfeasibleError) Unwrap() error { return e.Err }

// flight is one in-progress solve that identical requests attach to
// instead of solving again. The solve runs on lead's goroutine under
// the flight's own context (ctx), never any single caller's: each
// participant waits with its own context and leaves at its own
// deadline. refs counts the participants waiting now (guarded by
// Engine.flightMu). The flight stays in Engine.flights until lead
// retires it, so an identical request arriving while it runs joins it,
// a retry after every caller left included. A flight with no caller is
// detached; past Engine.maxDetached of those, the last caller out
// retires the flight and cancels ctx instead. lead fills sol/err and
// closes done.
type flight struct {
	key    solution.Key
	done   chan struct{}
	sol    *solution.Solution
	err    error
	ctx    context.Context
	cancel context.CancelFunc
	refs   int
}

// NewEngine builds an engine with the given options.
func NewEngine(opts Options) *Engine {
	if opts.CacheMaxBytes <= 0 {
		opts.CacheMaxBytes = solution.DefaultCacheBytes
	}
	e := &Engine{
		cache:       solution.NewCacheSized(opts.CacheSize, opts.CacheMaxBytes),
		store:       opts.Store,
		opts:        opts,
		flights:     make(map[solution.Key]*flight),
		maxDetached: runtime.GOMAXPROCS(0),
		neg:         make(map[solution.Key]error),
		negLL:       list.New(),
	}
	e.metrics.init(e)
	return e
}

// negLookup answers a remembered infeasible request, if any.
func (e *Engine) negLookup(key solution.Key) (error, bool) {
	e.negMu.Lock()
	defer e.negMu.Unlock()
	err, ok := e.neg[key]
	return err, ok
}

// negRemember records a deterministic infeasibility, evicting the oldest
// entries beyond the cap.
func (e *Engine) negRemember(key solution.Key, err error) {
	e.negMu.Lock()
	defer e.negMu.Unlock()
	if _, dup := e.neg[key]; dup {
		return
	}
	e.neg[key] = err
	e.negLL.PushFront(key)
	for e.negLL.Len() > negCacheCap {
		oldest := e.negLL.Back()
		e.negLL.Remove(oldest)
		delete(e.neg, oldest.Value.(solution.Key))
	}
}

// NegativeLen reports remembered infeasible requests (metrics).
func (e *Engine) NegativeLen() int {
	e.negMu.Lock()
	defer e.negMu.Unlock()
	return len(e.neg)
}

var (
	sharedOnce sync.Once
	sharedEng  *Engine
)

// Shared returns the process-wide engine the CLI tools solve through, so
// a single invocation of table1/sweep/antennactl reuses one artifact
// cache across all its instances.
func Shared() *Engine {
	sharedOnce.Do(func() { sharedEng = NewEngine(Options{}) })
	return sharedEng
}

// Cache exposes the engine's artifact cache (read-mostly: stats, len).
func (e *Engine) Cache() *solution.Cache { return e.cache }

// Store exposes the durable L2 tier, or nil when the engine runs
// memory-only.
func (e *Engine) Store() *solution.Store { return e.store }

// Plan runs the planner for a budget and objective without orienting.
func (e *Engine) Plan(obj plan.Objective, k int, phi float64) (plan.Decision, error) {
	e.metrics.PlanCalls.Add(1)
	return e.planner.Plan(obj, k, phi)
}

// Solve returns the verified artifact for the request, with the cache
// tier that served it (memory, disk, or a computed miss). Solve is
// deterministic: equal requests yield artifacts that encode to identical
// bytes, whether computed, cached, or read back from disk after a
// restart. Identical concurrent requests are single-flighted: one solve
// runs and every caller shares its artifact. The context is honored at
// every stage — an expired deadline returns promptly with ctx.Err()
// instead of orienting.
//
// Each successful call is observed once, by the tier that served it:
// SolveSeconds for a computed miss (coalesced callers included),
// HitSeconds for either cache tier. Those two histograms are therefore
// the server's /orient latency view; instance solves go through solve
// and stay out of it.
func (e *Engine) Solve(ctx context.Context, req Request) (*solution.Solution, CacheSource, error) {
	start := time.Now()
	sol, src, err := e.solve(ctx, req)
	if err == nil {
		h := e.metrics.SolveSeconds
		if src.Hit() {
			h = e.metrics.HitSeconds
		}
		h.ObserveDuration(time.Since(start))
	}
	return sol, src, err
}

// solve is Solve without the latency observation.
func (e *Engine) solve(ctx context.Context, req Request) (*solution.Solution, CacheSource, error) {
	e.metrics.Requests.Add(1)
	if err := validate(req); err != nil {
		return nil, SourceMiss, err
	}
	if req.Algo == "" && req.Objective.Deadline == 0 && e.opts.DefaultRace > 0 {
		req.Objective.Deadline = e.opts.DefaultRace
	}
	key := solution.Key{
		Digest: solution.Digest(req.Pts),
		K:      req.K,
		Phi:    req.Phi,
		Mode:   req.mode(),
	}
	_, endCache := obs.StartSpan(ctx, "cache")
	sol, ok := e.cache.Get(key)
	endCache()
	if ok {
		return sol, SourceMemory, nil
	}
	if e.store != nil {
		_, endStore := obs.StartSpan(ctx, "store")
		sol, ok := e.store.Get(key)
		endStore()
		if ok {
			e.cache.Put(key, sol) // promote to L1
			return sol, SourceDisk, nil
		}
	}
	// Negative cache: a budget the portfolio provably cannot serve keeps
	// failing identically — answer without re-planning.
	if negErr, ok := e.negLookup(key); ok {
		e.metrics.NegativeHits.Add(1)
		return nil, SourceMiss, negErr
	}
	if err := ctx.Err(); err != nil {
		e.noteCtxErr(err)
		return nil, SourceMiss, err
	}

	// Single-flight: identical in-flight requests share one solve. The
	// solve runs on the flight's own context, so no participant's
	// deadline bounds another's: a short-deadline waiter answers 503 at
	// *its* deadline while the solve keeps running, and a waiter that
	// outlives the caller that started the flight, or a retry that
	// arrives after every caller left, still receives the artifact.
	e.flightMu.Lock()
	if f, ok := e.flights[key]; ok {
		if f.refs == 0 {
			e.detached--
		}
		f.refs++
		e.flightMu.Unlock()
		e.metrics.Coalesced.Add(1)
		obs.Annotate(ctx, "coalesced", "true")
		_, endWait := obs.StartSpan(ctx, "coalesced")
		defer endWait()
		return e.await(ctx, f)
	}
	// Close the leader-handoff window: a previous leader may have filled
	// the cache and retired its flight between our cache lookup and here.
	// Re-check under flightMu before becoming a new leader, or TWO
	// leaders would solve the same request back to back.
	if sol, ok := e.cache.Peek(key); ok {
		e.flightMu.Unlock()
		return sol, SourceMemory, nil
	}
	// The flight context is detached from every caller's deadline but
	// keeps the leading caller's trace, so the solve's phase spans land
	// on the request that actually paid for them.
	fctx, cancel := context.WithCancel(obs.Detach(ctx))
	f := &flight{key: key, done: make(chan struct{}), ctx: fctx, cancel: cancel, refs: 1}
	e.flights[key] = f
	e.flightMu.Unlock()
	go e.lead(f, req)
	return e.await(ctx, f)
}

// lead runs the shared solve for a flight and retires it: sol/err are
// filled, the flight leaves the table unless leave already retired it
// (after the cache fill inside finish, so a request arriving later sees
// the cache instead of a stale flight), its context is released, and
// done releases every waiter.
func (e *Engine) lead(f *flight, req Request) {
	f.sol, f.err = e.solveMiss(f.ctx, req, f.key)
	var inf *InfeasibleError
	if errors.As(f.err, &inf) {
		e.negRemember(f.key, f.err)
	}
	e.flightMu.Lock()
	if e.flights[f.key] == f {
		delete(e.flights, f.key)
		if f.refs == 0 {
			e.detached--
		}
	}
	e.flightMu.Unlock()
	f.cancel()
	close(f.done)
}

// await parks one participant on a flight until the shared solve lands
// or the participant's own context expires — each caller observes its
// own deadline, never another caller's.
func (e *Engine) await(ctx context.Context, f *flight) (*solution.Solution, CacheSource, error) {
	defer e.leave(f)
	select {
	case <-f.done:
		return f.sol, SourceMiss, f.err
	case <-ctx.Done():
		e.noteCtxErr(ctx.Err())
		return nil, SourceMiss, ctx.Err()
	}
}

// leave drops a participant's flight reference. When the last one
// leaves, the flight runs on detached, still joinable, if fewer than
// maxDetached others do; past that bound it leaves the table (so a
// later identical request starts fresh instead of joining a cancelled
// solve) and its context is cancelled, so a construction with
// cancellation checkpoints (the tour 2-opt loop) stops at the next one.
func (e *Engine) leave(f *flight) {
	e.flightMu.Lock()
	defer e.flightMu.Unlock()
	if f.refs--; f.refs > 0 || e.flights[f.key] != f {
		return
	}
	if e.detached < e.maxDetached {
		e.detached++
		return
	}
	delete(e.flights, f.key)
	f.cancel()
}

// solveMiss computes, verifies, and caches the artifact for a request
// that missed both tiers, on the flight's goroutine under its context.
// Errors are never cached. The context is cancelled only once the
// flight is abandoned past the detached bound, so nobody reads an
// early return: the check after the EMST build and the constructions'
// own checkpoints only stop work that no caller waits for.
func (e *Engine) solveMiss(ctx context.Context, req Request, key solution.Key) (*solution.Solution, error) {
	_, endPlan := obs.StartSpan(ctx, "plan")
	algo, decision, err := e.selectAlgo(req)
	endPlan()
	if err != nil {
		return nil, err
	}
	orienter, ok := core.LookupOrienter(algo)
	if !ok {
		return nil, &InfeasibleError{Err: fmt.Errorf("service: unknown orienter %q", algo)}
	}
	guar, ok := orienter.Guarantee(req.K, req.Phi)
	if !ok {
		return nil, &InfeasibleError{Err: fmt.Errorf("service: orienter %q does not support k=%d phi=%.6f (region: %s)",
			algo, req.K, req.Phi, orienter.Info().Region)}
	}

	// One EMST per solve, built once the request is known to be
	// feasible. The verifier's radius audit divides by its bottleneck
	// l_max, read here before any construction sees the tree; the
	// orienter, or every race candidate, then starts from the same tree.
	_, endEMST := obs.StartSpan(ctx, "emst")
	tree := mst.Euclidean(req.Pts)
	endEMST()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	lmax := tree.LMax()

	if decision != nil && req.Objective.Deadline > 0 {
		e.metrics.Races.Add(1)
		_, endRace := obs.StartSpan(ctx, "plan")
		d := plan.Race(ctx, tree, *decision, req.Objective.Deadline, req.K, req.Phi)
		endRace()
		// A race that finished no candidate returns the a-priori
		// decision already resolved above. Otherwise it oriented the
		// winner on this instance; reuse that run instead of orienting
		// a second time.
		decision, guar = &d, d.Guarantee
		if d.WinnerAsg != nil {
			return e.finish(ctx, req, key, decision, guar, d.WinnerAsg, d.WinnerRes, lmax), nil
		}
	}

	_, endOrient := obs.StartSpan(ctx, "orient")
	asg, res, err := orienter.OrientCtx(ctx, tree, req.K, req.Phi)
	endOrient()
	if err != nil {
		if ctx.Err() == nil {
			e.metrics.OrientErrors.Add(1)
		}
		return nil, err
	}
	return e.finish(ctx, req, key, decision, guar, asg, res, lmax), nil
}

// finish runs the post-orientation tail — independent verification,
// artifact assembly, and the fill of both cache tiers — and returns the
// immutable artifact. lmax is the bottleneck of the solve's EMST,
// bit-for-bit the value verify.Check would recompute (the same
// mst.Euclidean over the same points), so handing it over changes no
// verdict and saves a second tree build.
func (e *Engine) finish(ctx context.Context, req Request, key solution.Key, decision *plan.Decision, guar core.Guarantee,
	asg *antenna.Assignment, res *core.Result, lmax float64) *solution.Solution {
	// Budgets come from the a-priori guarantee, never from the
	// construction's self-report.
	budgets := plan.VerifyBudgets(guar)
	budgets.KnownLMax = lmax
	_, endVerify := obs.StartSpan(ctx, "verify")
	rep := verify.Check(asg, budgets)
	endVerify()
	if !rep.OK() {
		e.metrics.VerifyFailures.Add(1)
	}
	sol := buildSolution(key, req, decision, guar, asg, res, rep)
	e.metrics.SolvePoints.Observe(float64(len(req.Pts)))
	_, endFill := obs.StartSpan(ctx, "fill")
	e.cache.Put(key, sol)
	// Counted once the memory tier serves it: a reader that sees the
	// solve counted can hit the artifact.
	e.metrics.Solves.Add(1)
	if e.store != nil {
		_ = e.store.Put(key, sol) // best-effort; failures show in store stats
	}
	endFill()
	return sol
}

// noteCtxErr counts a context failure: only true deadline expiries move
// the deadline counter — a client cancellation (context.Canceled) is the
// caller abandoning the request, not the server missing its ceiling.
func (e *Engine) noteCtxErr(err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		e.metrics.DeadlineExceeded.Add(1)
	}
}

// maxK bounds the antenna budget the engine accepts: the constructions
// never use more than 5, and the artifact codec stores k in 16 bits.
const maxK = 4096

// validate rejects malformed requests before any work happens.
func validate(req Request) error {
	if req.K < 1 || req.K > maxK {
		return fmt.Errorf("service: k must be in [1, %d], got %d", maxK, req.K)
	}
	if req.Phi < 0 || math.IsNaN(req.Phi) || math.IsInf(req.Phi, 0) {
		return fmt.Errorf("service: invalid spread budget %v", req.Phi)
	}
	for i, p := range req.Pts {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
			return fmt.Errorf("service: point %d is not finite", i)
		}
	}
	return nil
}

// selectAlgo resolves the orienter to run: the explicit name, or the
// planner's a-priori choice (which a racing objective may overturn once
// the EMST is built, see solveMiss).
func (e *Engine) selectAlgo(req Request) (string, *plan.Decision, error) {
	if req.Algo != "" {
		return req.Algo, nil, nil
	}
	e.metrics.PlanCalls.Add(1)
	d, err := e.planner.Plan(req.Objective, req.K, req.Phi)
	if err != nil {
		// An empty shortlist is a property of the budget and objective
		// alone — deterministic, hence negatively cacheable.
		return "", nil, &InfeasibleError{Err: err}
	}
	return d.Winner, &d, nil
}

// buildSolution assembles the immutable artifact.
func buildSolution(key solution.Key, req Request, decision *plan.Decision, guar core.Guarantee,
	asg *antenna.Assignment, res *core.Result, rep *verify.Report) *solution.Solution {
	sol := &solution.Solution{
		Version:      solution.Version,
		PointsDigest: key.Digest,
		N:            len(req.Pts),
		K:            req.K,
		Phi:          req.Phi,
		Algo:         res.Algorithm,
		Construction: res.Algorithm,
		Guarantee: solution.Guarantee{
			Conn:     guar.Conn.String(),
			Stretch:  guar.Stretch,
			Antennae: guar.Antennae,
			Spread:   guar.Spread,
			StrongC:  guar.StrongC,
		},
		Sectors:      solution.FromAssignment(asg),
		LMax:         rep.LMax,
		Bound:        res.Bound,
		ProvedBound:  res.Guarantee,
		RadiusUsed:   rep.MaxRadius,
		RadiusRatio:  rep.RadiusRatio,
		SpreadUsed:   rep.MaxSpread,
		Edges:        rep.Edges,
		Verified:     rep.OK() && len(res.Violations) == 0,
		VerifyErrors: append([]string(nil), rep.Errors...),
		Violations:   append([]string(nil), res.Violations...),
	}
	if decision != nil {
		sol.Planned = true
		sol.Objective = req.Objective.Key()
		// The registered winner name is authoritative; the dispatcher's
		// self-report may name an internal construction.
		sol.Algo = decision.Winner
	}
	if req.Algo != "" {
		sol.Algo = req.Algo
	}
	return sol
}

// Algos describes the registered portfolio for listings (/algos, CLI).
func Algos() []AlgoInfo {
	var out []AlgoInfo
	for _, o := range core.Orienters() {
		info := o.Info()
		ai := AlgoInfo{
			Name:    info.Name,
			Summary: info.Summary,
			Region:  info.Region,
			Source:  info.Source,
			RepK:    info.RepK,
			RepPhi:  info.RepPhi,
		}
		if g, ok := o.Guarantee(info.RepK, info.RepPhi); ok {
			ai.Guarantee = &solution.Guarantee{
				Conn:     g.Conn.String(),
				Stretch:  g.Stretch,
				Antennae: g.Antennae,
				Spread:   g.Spread,
				StrongC:  g.StrongC,
			}
		}
		out = append(out, ai)
	}
	return out
}

// AlgoInfo is one portfolio entry with the guarantee at its
// representative budget.
type AlgoInfo struct {
	Name      string              `json:"name"`
	Summary   string              `json:"summary"`
	Region    string              `json:"region"`
	Source    string              `json:"source"`
	RepK      int                 `json:"rep_k"`
	RepPhi    float64             `json:"rep_phi"`
	Guarantee *solution.Guarantee `json:"guarantee,omitempty"`
}
