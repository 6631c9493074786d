package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/antenna"
	"repro/internal/geom"
	"repro/internal/mst"
)

// Orient selects and runs the strongest applicable Table-1 algorithm for k
// antennae per sensor with total spread budget phi (radians). It returns
// the antenna assignment and the algorithm's self-report; use package
// verify for independent ground truth. Orient builds the EMST of pts;
// a caller that already holds it calls OrientCtx.
//
// Dispatch mirrors Table 1:
//
//	k=1: φ ≥ 8π/5 → full cover (r=1);  π ≤ φ < 8π/5 → anchored arc
//	     (r ≤ 2·sin(π−φ/2));  φ < π → bottleneck tour (r ≈ 2, ≤ 3 proven).
//	k=2: φ ≥ 6π/5 → Theorem 2 (r=1);  φ ≥ π → Theorem 3.1 (r ≤ 2·sin 2π/9);
//	     φ ≥ 2π/3 → Theorem 3.2 (r ≤ 2·sin(π/2−φ/4));  else tour.
//	k=3: φ ≥ 4π/5 → Theorem 2 (r=1);  else Theorem 5 (r ≤ √3).
//	k=4: φ ≥ 2π/5 → Theorem 2 (r=1);  else Theorem 6 (r ≤ √2).
//	k≥5: bidirected MST (r=1).
func Orient(pts []geom.Point, k int, phi float64) (*antenna.Assignment, *Result, error) {
	return OrientCtx(context.Background(), mst.Euclidean(pts), k, phi)
}

// OrientCtx is Orient on tree, the EMST of the points tree.Pts, under a
// context: the dispatch arms with internal cancellation checkpoints
// (today the bottleneck-tour rows, whose 2-opt repair dominates at large
// n) abandon the solve with ctx.Err() once the context is done; the
// remaining arms run to completion and the context is honored between
// phases by the caller.
func OrientCtx(ctx context.Context, tree *mst.Tree, k int, phi float64) (*antenna.Assignment, *Result, error) {
	if k < 1 {
		return nil, nil, fmt.Errorf("core: k must be ≥ 1, got %d", k)
	}
	if phi < 0 || math.IsNaN(phi) {
		return nil, nil, fmt.Errorf("core: invalid spread budget %v", phi)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	// The branch table couples each construction with the guarantee it
	// provides (see dispatchBranches); dispatchGuarantee reads the same
	// table, so claim and construction cannot diverge.
	return dispatchBranchFor(k, phi).run(ctx, tree, k, phi)
}

// RowSpec describes one row of the paper's Table 1 for the reproduction
// harness: the antenna count, the spread to run at, and the expected
// radius bound.
type RowSpec struct {
	Name   string
	K      int
	Phi    float64
	Bound  float64
	Source string
}

// Table1Rows returns the twelve rows of Table 1 in paper order, each with
// a concrete spread value inside its regime (regimes given as inequalities
// use their boundary, the strongest claim).
func Table1Rows() []RowSpec {
	rows := []struct {
		name string
		k    int
		phi  float64
	}{
		{"k1-phi0", 1, 0},
		{"k1-piQ", 1, math.Pi},         // π ≤ φ₁ < 8π/5 at φ=π
		{"k1-pi1.3", 1, 1.3 * math.Pi}, // interior of the [4] regime
		{"k1-8pi5", 1, Phi1Full},       // φ₁ ≥ 8π/5
		{"k2-phi0", 2, 0},              // [14]
		{"k2-2pi3", 2, Phi2Min},        // Theorem 3.2 boundary
		{"k2-0.9pi", 2, 0.9 * math.Pi}, // Theorem 3.2 interior
		{"k2-pi", 2, Phi2Main},         // Theorem 3.1
		{"k2-6pi5", 2, Phi2Full},       // Theorem 2
		{"k3-phi0", 3, 0},              // Theorem 5
		{"k3-4pi5", 3, Phi3Full},       // Theorem 2
		{"k4-phi0", 4, 0},              // Theorem 6
		{"k4-2pi5", 4, Phi4Full},       // Theorem 2
		{"k5-phi0", 5, 0},              // folklore
	}
	out := make([]RowSpec, 0, len(rows))
	for _, r := range rows {
		b, src := Bound(r.k, r.phi)
		out = append(out, RowSpec{Name: r.name, K: r.k, Phi: r.phi, Bound: b, Source: src})
	}
	return out
}
