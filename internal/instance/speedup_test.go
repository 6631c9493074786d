package instance_test

// speedup_test.go — the headline acceptance check: a 100k-sensor
// instance absorbs a small churn batch at least an order of magnitude
// faster than a from-scratch solve. Skipped under -short (the create
// alone is a six-figure solve).

import (
	"context"
	"slices"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/instance"
	"repro/internal/service"
	"repro/internal/solution"
)

// TestRepairSpeedup100k creates a 100_000-sensor cover instance, applies
// five independent 4-op churn batches, and requires the fastest repair
// to beat the median of five cache-cold full solves by ≥ 10×. Each full
// solve runs on its trial's point set right after that trial's repair,
// so a load burst lands on both sides rather than on the repairs alone,
// and no single full-solve timing decides the verdict. The fastest-of-five
// guards against scheduler noise on the repair side.
func TestRepairSpeedup100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k solve; skipped under -short")
	}
	ctx := context.Background()
	m := newTestManager(instance.Config{})
	pts := testPoints(100_000, 17)
	if _, err := m.Create(ctx, "big", pts, coverBudget()); err != nil {
		t.Fatal(err)
	}

	// Every trial's point set is new, so the scratch engine solves each
	// one cold.
	scratchEng := service.NewEngine(service.Options{CacheSize: 1})
	cb := coverBudget()
	cur := append([]geom.Point(nil), pts...)
	best := time.Duration(1<<62 - 1)
	var fulls []time.Duration
	for trial := 0; trial < 5; trial++ {
		// Irregular per-trial offsets: evenly spaced colinear arrivals
		// would manufacture EMST ties and bail the splice by design.
		base := float64(trial*trial)*0.0013 + float64(trial)*0.00041
		ops := []instance.Op{
			{Op: solution.OpAdd, X: 7.01 + base, Y: 7.02 + 2.3*base},
			{Op: solution.OpMove, Index: 1000 * (trial + 1), X: 3.03, Y: 9.04 + base},
			{Op: solution.OpRemove, Index: 2000 * (trial + 1)},
			{Op: solution.OpAdd, X: 11.05 - 1.7*base, Y: 2.06 + base},
		}
		snap, err := m.Apply(ctx, "big", 0, ops)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Repair != instance.RepairIncremental {
			t.Fatalf("trial %d: 4-op batch at n=100k took %q, want incremental", trial, snap.Repair)
		}
		if !snap.Sol.Verified {
			t.Fatalf("trial %d: repaired 100k revision not verified", trial)
		}
		if cur, err = solution.ApplyPointOps(cur, ops); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		scratch, src, err := scratchEng.Solve(ctx, service.Request{Pts: cur, K: cb.K, Phi: cb.Phi, Algo: cb.Algo})
		if err != nil {
			t.Fatal(err)
		}
		full := time.Since(start)
		if src != service.SourceMiss || !scratch.Verified {
			t.Fatalf("trial %d: scratch 100k solve src=%v verified=%v, want a verified miss", trial, src, scratch.Verified)
		}
		best = min(best, snap.Elapsed)
		fulls = append(fulls, full)
		t.Logf("trial %d: repair %v, full solve %v", trial, snap.Elapsed, full)
	}
	slices.Sort(fulls)
	full := fulls[len(fulls)/2]
	t.Logf("n=100k: fastest repair %v vs median full solve %v (%.1f×)", best, full, float64(full)/float64(best))
	if best*10 > full {
		t.Fatalf("repair %v not ≥10× faster than the median full solve %v", best, full)
	}
}
