package service

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/pointset"
	"repro/internal/solution"
	"repro/internal/verify"
)

func uniformPts(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	return pointset.Uniform(rng, n, 10)
}

// workloadPts mirrors the server's gen request path exactly.
func workloadPts(kind string, n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	return pointset.Workload(kind, rng, n)
}

// TestSolveVerifiedArtifact: a plain solve produces a verified artifact
// whose measurements respect the attached guarantee.
func TestSolveVerifiedArtifact(t *testing.T) {
	eng := NewEngine(Options{})
	pts := uniformPts(120, 1)
	sol, hit, err := eng.Solve(context.Background(), Request{Pts: pts, K: 2, Phi: math.Pi, Algo: "table1"})
	if err != nil {
		t.Fatal(err)
	}
	if hit.Hit() {
		t.Fatal("first solve reported a cache hit")
	}
	if !sol.Verified {
		t.Fatalf("artifact not verified: %v %v", sol.VerifyErrors, sol.Violations)
	}
	if sol.N != 120 || sol.K != 2 || sol.Phi != math.Pi || sol.Algo != "table1" {
		t.Fatalf("artifact header mismatch: %+v", sol)
	}
	if sol.RadiusRatio > sol.Guarantee.Stretch+1e-7 {
		t.Fatalf("measured ratio %.4f exceeds guarantee %.4f", sol.RadiusRatio, sol.Guarantee.Stretch)
	}
	// The artifact must reconstruct into a verifiable assignment.
	asg, err := sol.Assignment(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !verify.CheckStrong(asg) {
		t.Fatal("reconstructed assignment not strongly connected")
	}
}

// TestSolveCacheHitByteIdentical: the repeated request must hit the
// cache and encode to byte-identical artifacts in both codecs.
func TestSolveCacheHitByteIdentical(t *testing.T) {
	eng := NewEngine(Options{})
	pts := uniformPts(90, 2)
	req := Request{Pts: pts, K: 2, Phi: 0, Algo: "tworay"}
	s1, hit1, err := eng.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	s2, hit2, err := eng.Solve(context.Background(), Request{Pts: append([]geom.Point(nil), pts...), K: 2, Phi: 0, Algo: "tworay"})
	if err != nil {
		t.Fatal(err)
	}
	if hit1.Hit() || hit2 != SourceMemory {
		t.Fatalf("cache sources: first=%v second=%v, want miss/memory", hit1, hit2)
	}
	j1, _ := s1.EncodeJSON()
	j2, _ := s2.EncodeJSON()
	if !bytes.Equal(j1, j2) {
		t.Fatal("cached artifact JSON differs from computed artifact")
	}
	if !bytes.Equal(s1.EncodeBinary(), s2.EncodeBinary()) {
		t.Fatal("cached artifact binary differs from computed artifact")
	}
}

// TestSolveCacheMissOnDifferentRequest: budget, algorithm, objective, or
// pointset changes must all miss.
func TestSolveCacheMissOnDifferentRequest(t *testing.T) {
	eng := NewEngine(Options{})
	pts := uniformPts(60, 3)
	ctx := context.Background()
	if _, _, err := eng.Solve(ctx, Request{Pts: pts, K: 2, Phi: 0, Algo: "tworay"}); err != nil {
		t.Fatal(err)
	}
	for name, req := range map[string]Request{
		"different k":      {Pts: pts, K: 3, Phi: 0, Algo: "table1"},
		"different phi":    {Pts: pts, K: 2, Phi: 0.5, Algo: "tworay"},
		"different algo":   {Pts: pts, K: 2, Phi: 0, Algo: "tour"},
		"planner mode":     {Pts: pts, K: 2, Phi: 0},
		"different points": {Pts: uniformPts(60, 4), K: 2, Phi: 0, Algo: "tworay"},
	} {
		_, hit, err := eng.Solve(ctx, req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if hit.Hit() {
			t.Fatalf("%s: unexpectedly hit the cache", name)
		}
	}
}

// TestSolvePlannerPath: with no algorithm named, the engine plans by
// objective — tworay on the (k=2, φ=0) budget, a symmetric-capable
// orienter when symmetric connectivity is demanded — and records the
// decision in the artifact.
func TestSolvePlannerPath(t *testing.T) {
	eng := NewEngine(Options{})
	pts := uniformPts(80, 5)
	ctx := context.Background()

	sol, _, err := eng.Solve(ctx, Request{Pts: pts, K: 2, Phi: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Planned || sol.Algo != "tworay" {
		t.Fatalf("planner chose %q (planned=%v), want tworay", sol.Algo, sol.Planned)
	}
	if !sol.Verified {
		t.Fatalf("planned artifact not verified: %v", sol.VerifyErrors)
	}

	sym := plan.Objective{Conn: core.ConnSymmetric, Minimize: plan.MinStretch}
	sol, _, err = eng.Solve(ctx, Request{Pts: pts, K: 1, Phi: math.Pi, Objective: sym})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Algo != "bats" || sol.Guarantee.Conn != "symmetric" {
		t.Fatalf("symmetric objective chose %q (conn %s), want bats/symmetric", sol.Algo, sol.Guarantee.Conn)
	}
	if !sol.Verified {
		t.Fatalf("symmetric artifact not verified: %v", sol.VerifyErrors)
	}
}

// TestSolveRejectsBadRequests: invalid budgets and unknown orienters
// error out before any orientation work.
func TestSolveRejectsBadRequests(t *testing.T) {
	eng := NewEngine(Options{})
	pts := uniformPts(10, 6)
	ctx := context.Background()
	for name, req := range map[string]Request{
		"k=0":           {Pts: pts, K: 0, Phi: 0},
		"negative phi":  {Pts: pts, K: 1, Phi: -1},
		"NaN phi":       {Pts: pts, K: 1, Phi: math.NaN()},
		"unknown algo":  {Pts: pts, K: 1, Phi: 0, Algo: "nope"},
		"out of region": {Pts: pts, K: 1, Phi: 0, Algo: "k1"},
	} {
		if _, _, err := eng.Solve(ctx, req); err == nil {
			t.Fatalf("%s: solve succeeded", name)
		}
	}
}

// TestSolveRacedObjective: a racing objective must produce a verified
// artifact reusing the race winner's run (no second orientation), and
// artifacts raced under different deadlines must not alias in the cache.
func TestSolveRacedObjective(t *testing.T) {
	eng := NewEngine(Options{})
	pts := uniformPts(70, 9)
	ctx := context.Background()
	obj := plan.Objective{Conn: core.ConnStrong, Minimize: plan.MinStretch, Deadline: 30 * time.Second}
	sol, _, err := eng.Solve(ctx, Request{Pts: pts, K: 2, Phi: 0, Objective: obj})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Verified || !sol.Planned {
		t.Fatalf("raced artifact verified=%v planned=%v: %v", sol.Verified, sol.Planned, sol.VerifyErrors)
	}
	if eng.Metrics().Races.Load() != 1 {
		t.Fatalf("races counter %d, want 1", eng.Metrics().Races.Load())
	}
	// A different deadline is a different objective key: must miss.
	obj2 := obj
	obj2.Deadline = 29 * time.Second
	_, hit, err := eng.Solve(ctx, Request{Pts: pts, K: 2, Phi: 0, Objective: obj2})
	if err != nil {
		t.Fatal(err)
	}
	if hit.Hit() {
		t.Fatal("artifacts raced under different deadlines aliased one cache slot")
	}
	// Same deadline: hit.
	_, hit, err = eng.Solve(ctx, Request{Pts: pts, K: 2, Phi: 0, Objective: obj})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Hit() {
		t.Fatal("repeated raced request missed the cache")
	}
}

// TestSolveRejectsHugeK: the codec stores k in 16 bits; the engine must
// refuse budgets that would truncate.
func TestSolveRejectsHugeK(t *testing.T) {
	eng := NewEngine(Options{})
	if _, _, err := eng.Solve(context.Background(), Request{Pts: uniformPts(10, 1), K: 65537, Phi: 0}); err == nil {
		t.Fatal("k=65537 accepted")
	}
}

// phaseSpan reports whether the trace has opened a span called name and
// whether that span is still open. The flight context keeps its leading
// caller's trace, so "emst" is open exactly while the flight builds its
// tree and "orient" while its orientation runs.
func phaseSpan(tr *obs.Trace, name string) (started, open bool) {
	spans, _ := tr.Snapshot()
	for _, sp := range spans {
		if sp.Name == name {
			return true, sp.Dur < 0
		}
	}
	return false, false
}

// waitForOrient blocks until the traced flight has started orienting.
func waitForOrient(t *testing.T, tr *obs.Trace) {
	t.Helper()
	waitForPhase(t, tr, "orient")
}

// waitForPhase blocks until the traced flight has opened the named span.
func waitForPhase(t *testing.T, tr *obs.Trace, name string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if started, _ := phaseSpan(tr, name); started {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("the traced miss did not start its %s phase within 5s", name)
		}
	}
}

// holPoints sizes the large tour miss of the head-of-line and
// cancellation tests: over half a second uninterrupted, shrunk under
// -short so the race-detector run stays within its budget.
func holPoints() int {
	if testing.Short() {
		return 10000
	}
	return 50000
}

// TestSmallMissNotBehindLargeSolve: every miss orients on its own
// goroutine, so with antennad's defaults an n=100 miss answers while the
// orientation of a large tour miss on the same engine is still running.
// The check is on the order of events, not on a latency threshold.
func TestSmallMissNotBehindLargeSolve(t *testing.T) {
	eng := NewEngine(Options{})
	big := Request{Pts: uniformPts(holPoints(), 27), K: 1, Phi: 0, Algo: "tour"}
	tr := obs.NewTrace("large")
	bigDone := make(chan error, 1)
	go func() {
		_, _, err := eng.Solve(obs.WithTrace(context.Background(), tr), big)
		bigDone <- err
	}()
	waitForOrient(t, tr)

	sol, _, err := eng.Solve(context.Background(), Request{Pts: uniformPts(100, 28), K: 1, Phi: 0, Algo: "tour"})
	if err != nil || !sol.Verified {
		t.Fatalf("small miss: err=%v verified=%v", err, sol != nil && sol.Verified)
	}
	if _, open := phaseSpan(tr, "orient"); !open {
		t.Fatal("the large orientation finished before the small miss answered: the small miss queued behind it")
	}
	if err := <-bigDone; err != nil {
		t.Fatalf("large solve: %v", err)
	}
}

// TestMissAbandonedDuringBuildIsSalvaged: when the only caller of a miss
// gives up while the flight is still building its EMST, the flight
// orients anyway and the artifact is salvaged into the cache, so a retry
// is a memory hit instead of another build abandoned under the same
// deadline.
func TestMissAbandonedDuringBuildIsSalvaged(t *testing.T) {
	eng := NewEngine(Options{})
	req := Request{Pts: uniformPts(holPoints(), 31), K: 2, Phi: 0, Algo: "tworay"}
	tr := obs.NewTrace("build")
	ctx, cancel := context.WithCancel(obs.WithTrace(context.Background(), tr))
	defer cancel()
	solveErr := make(chan error, 1)
	go func() {
		_, _, err := eng.Solve(ctx, req)
		solveErr <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		if started, _ := phaseSpan(tr, "emst"); started {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the traced miss did not start its EMST build within 5s")
		}
	}
	cancel()
	if _, open := phaseSpan(tr, "emst"); !open {
		t.Skip("the EMST build finished before the cancellation landed")
	}
	if err := <-solveErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned miss: err=%v, want context.Canceled", err)
	}
	for deadline := time.Now().Add(30 * time.Second); eng.Metrics().Solves.Load() == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a miss abandoned during its EMST build was never salvaged into the cache")
		}
	}
	if _, src, err := eng.Solve(context.Background(), req); err != nil || src != SourceMemory {
		t.Fatalf("retry after salvage src=%v err=%v, want memory hit", src, err)
	}
	if n := eng.Metrics().Solves.Load(); n != 1 {
		t.Fatalf("%d solves, want 1 — the retry must reuse the salvaged artifact", n)
	}
}

// solveGoroutines reports whether any goroutine is still running a
// flight's solve: Engine.lead, or a goroutine Engine.solveMiss started.
func solveGoroutines() bool {
	buf := make([]byte, 1<<20)
	stacks := buf[:runtime.Stack(buf, true)]
	return bytes.Contains(stacks, []byte("service.(*Engine).lead")) ||
		bytes.Contains(stacks, []byte("service.(*Engine).solveMiss"))
}

// waitSolvesDrained blocks until no flight's solve is running.
func waitSolvesDrained(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(time.Minute); solveGoroutines(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a solve was still running after a minute")
		}
	}
}

// TestAbandonedTourMissStopsAtCheckpoint: when the only caller of a
// running tour miss gives up and no detached flight may run on, the
// flight context is cancelled and the 2-opt loop stops at its next
// checkpoint. Once the flight's goroutine has exited, nothing was
// cached and no solve was counted; an orientation that ignored the
// context would have run to completion and filled the cache.
func TestAbandonedTourMissStopsAtCheckpoint(t *testing.T) {
	eng := NewEngine(Options{})
	eng.maxDetached = 0
	tr := obs.NewTrace("abandoned")
	ctx, cancel := context.WithCancel(obs.WithTrace(context.Background(), tr))
	defer cancel()
	solveErr := make(chan error, 1)
	go func() {
		_, _, err := eng.Solve(ctx, Request{Pts: uniformPts(holPoints(), 29), K: 1, Phi: 0, Algo: "tour"})
		solveErr <- err
	}()
	waitForOrient(t, tr)
	cancel()
	if err := <-solveErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned miss: err=%v, want context.Canceled", err)
	}

	waitSolvesDrained(t)
	if n := eng.Metrics().Solves.Load(); n != 0 {
		t.Fatalf("%d solves counted: the abandoned tour ran to completion", n)
	}
	if n := eng.Cache().Len(); n != 0 {
		t.Fatalf("%d artifacts cached after an abandoned tour miss", n)
	}
}

// TestRetryAfterDeadlineJoinsFlight: a client that retries at once after
// each deadline expiry joins the flight its earlier attempts started,
// even when every caller has left it, so the key is solved once however
// many attempts it takes. The uninterrupted solve takes well over ten
// times the deadline.
func TestRetryAfterDeadlineJoinsFlight(t *testing.T) {
	eng := NewEngine(Options{})
	req := Request{Pts: uniformPts(2*holPoints(), 33), K: 2, Phi: 1.3 * math.Pi, Algo: "cover"}
	const deadline = 5 * time.Millisecond
	begin := time.Now()
	attempts := 1
	for ; ; attempts++ {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		_, _, err := eng.Solve(ctx, req)
		cancel()
		if err == nil {
			break
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("attempt %d: err=%v, want deadline exceeded", attempts, err)
		}
		if time.Since(begin) > time.Minute {
			t.Fatalf("no attempt succeeded within a minute (%d attempts)", attempts)
		}
	}
	if attempts == 1 {
		t.Skipf("the first attempt beat its %v deadline", deadline)
	}
	t.Logf("first success after %d attempts, %v", attempts, time.Since(begin))
	waitSolvesDrained(t)
	if n := eng.Metrics().Solves.Load(); n != 1 {
		t.Fatalf("%d solves of one key over %d attempts, want 1", n, attempts)
	}
	if eng.Metrics().Coalesced.Load() == 0 {
		t.Fatal("no retry joined the running flight")
	}
}

// TestDetachedFlightsBounded: with room for one detached flight, the
// first of two abandoned tour misses keeps running and stays joinable,
// while the second is retired and cancelled, so its 2-opt loop stops at
// a checkpoint and nothing of it is cached.
func TestDetachedFlightsBounded(t *testing.T) {
	eng := NewEngine(Options{})
	eng.maxDetached = 1
	// The kept miss is twice the size and abandoned during its EMST
	// build, so it is still running after the dropped one has been
	// abandoned at the start of its orientation.
	kept := Request{Pts: uniformPts(2*holPoints(), 34), K: 1, Phi: 0, Algo: "tour"}
	dropped := Request{Pts: uniformPts(holPoints(), 35), K: 1, Phi: 0, Algo: "tour"}
	abandon := func(req Request, phase string) {
		tr := obs.NewTrace("abandoned")
		ctx, cancel := context.WithCancel(obs.WithTrace(context.Background(), tr))
		defer cancel()
		solveErr := make(chan error, 1)
		go func() {
			_, _, err := eng.Solve(ctx, req)
			solveErr <- err
		}()
		waitForPhase(t, tr, phase)
		cancel()
		if _, open := phaseSpan(tr, phase); !open {
			t.Skipf("the %s phase finished before the cancellation landed", phase)
		}
		if err := <-solveErr; !errors.Is(err, context.Canceled) {
			t.Fatalf("miss abandoned in its %s phase: err=%v, want context.Canceled", phase, err)
		}
	}
	abandon(kept, "emst")
	abandon(dropped, "orient")

	eng.flightMu.Lock()
	_, keptLive := eng.flights[requestKey(kept)]
	_, droppedLive := eng.flights[requestKey(dropped)]
	detached := eng.detached
	eng.flightMu.Unlock()
	if !keptLive || droppedLive || detached != 1 {
		t.Fatalf("after abandoning two misses: kept in table=%v, dropped in table=%v, detached=%d; want true, false, 1",
			keptLive, droppedLive, detached)
	}
	if sol, src, err := eng.Solve(context.Background(), kept); err != nil || src != SourceMiss || !sol.Verified {
		t.Fatalf("joining the detached flight: src=%v err=%v", src, err)
	}
	if n := eng.Metrics().Coalesced.Load(); n != 1 {
		t.Fatalf("coalesced=%d, want 1: the retry did not join the detached flight", n)
	}

	waitSolvesDrained(t)
	if n := eng.Metrics().Solves.Load(); n != 1 {
		t.Fatalf("%d solves counted, want 1: the cancelled tour ran to completion", n)
	}
	if _, ok := eng.Cache().Peek(requestKey(dropped)); ok {
		t.Fatal("the cancelled tour's artifact was cached")
	}
	eng.flightMu.Lock()
	defer eng.flightMu.Unlock()
	if eng.detached != 0 || len(eng.flights) != 0 {
		t.Fatalf("after the drain: detached=%d flights=%d, want 0, 0", eng.detached, len(eng.flights))
	}
}

// requestKey is the cache and flight key Solve derives for a request
// with an explicit algorithm.
func requestKey(req Request) solution.Key {
	return solution.Key{Digest: solution.Digest(req.Pts), K: req.K, Phi: req.Phi, Mode: req.mode()}
}
