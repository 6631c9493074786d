package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geom"
)

func cancelTestPoints(n int) []geom.Point {
	rng := rand.New(rand.NewSource(99))
	pts := make([]geom.Point, n)
	side := math.Sqrt(float64(n))
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	return pts
}

// TestTwoOptCancelledContext: an already-expired context abandons the
// repair loop immediately with the context's error.
func TestTwoOptCancelledContext(t *testing.T) {
	pts := cancelTestPoints(400)
	tour := make([]int, len(pts))
	for i := range tour {
		tour[i] = i
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := TwoOptBottleneckCtx(ctx, pts, tour, 4*len(pts)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// And the background variant still completes.
	if out, err := TwoOptBottleneckCtx(context.Background(), pts, tour, 4*len(pts)); err != nil || len(out) != len(pts) {
		t.Fatalf("uncancelled run failed: %v (len %d)", err, len(out))
	}
}

// expireCtx returns a deadline context that has provably expired: it
// sleeps past the deadline so the runtime timer has fired even on a
// single-CPU runner (a busy goroutine cannot rely on a 1ms timer firing
// mid-solve, so the deterministic tests pre-expire instead).
func expireCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	t.Cleanup(cancel)
	time.Sleep(3 * time.Millisecond)
	if ctx.Err() == nil {
		t.Fatal("test context did not expire")
	}
	return ctx
}

// countingCtx is a fake context whose Err flips to Canceled after a fixed
// number of Err() polls — a deterministic stand-in for a deadline firing
// mid-loop, which real timers cannot deliver reliably on a busy
// single-CPU runner.
type countingCtx struct {
	context.Context
	remaining int
}

func (c *countingCtx) Err() error {
	if c.remaining--; c.remaining < 0 {
		return context.Canceled
	}
	return nil
}

// TestTwoOptCheckpointsFireMidLoop: the repair loop polls the context
// between accepted moves, so a context that goes bad mid-optimization
// abandons the tour instead of finishing it.
func TestTwoOptCheckpointsFireMidLoop(t *testing.T) {
	pts := cancelTestPoints(2000)
	tour := make([]int, len(pts))
	for i := range tour {
		tour[i] = i
	}
	// Let the entry polls pass, then go bad: the loop must notice at the
	// next interior checkpoint rather than running to completion. (The
	// identity tour over uniform points needs far more than 64 accepted
	// moves, and the pipeline is deterministic, so the checkpoint is
	// always reached.)
	ctx := &countingCtx{Context: context.Background(), remaining: 2}
	if _, err := TwoOptBottleneckCtx(ctx, pts, tour, 4*len(pts)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled from a mid-loop checkpoint", err)
	}
}

// TestTourOrienterHonorsDeadline: the registered tour orienter abandons a
// solve whose deadline has passed with the context's error instead of
// completing it (the checkpoint inside BestTourCtx's 2-opt loop).
func TestTourOrienterHonorsDeadline(t *testing.T) {
	o, ok := LookupOrienter("tour")
	if !ok {
		t.Fatal("tour orienter not registered")
	}
	_, _, err := o.OrientCtx(expireCtx(t), cancelTestPoints(600), 1, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

// TestOrientCtxDispatcherCancel: the Table-1 dispatcher's tour fallback
// arm (φ = 0) threads the context; an expired context answers with the
// context error on that arm and on explicit-ctx entry.
func TestOrientCtxDispatcherCancel(t *testing.T) {
	pts := cancelTestPoints(300)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := OrientCtx(ctx, pts, 2, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("tour arm err = %v, want context.Canceled", err)
	}
	if _, _, err := OrientCtx(ctx, pts, 2, math.Pi); !errors.Is(err, context.Canceled) {
		t.Fatalf("non-tour arm must still refuse an expired context up front, got %v", err)
	}
	// The plain entry point is unaffected.
	if _, _, err := Orient(pts, 2, 0); err != nil {
		t.Fatalf("background orient failed: %v", err)
	}
}
