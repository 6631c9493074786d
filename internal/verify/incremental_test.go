package verify_test

import (
	"math/rand"
	"testing"

	"repro/internal/antenna"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mst"
	"repro/internal/spatial"
	"repro/internal/verify"
)

// The incremental-verifier cross-check suite (ISSUE 9 satellite): after
// every applied delta the maintained digraph and the maintained verdict
// must match a fresh from-scratch verify.Check pass bit for bit. CI runs
// the -short shape under -race; the nightly job runs the full sweep.

type ivConfig struct {
	name  string
	b     verify.Budgets
	build func(pts []geom.Point) *antenna.Assignment
}

func ivConfigs(t *testing.T) []ivConfig {
	tourBuild := func(k int) func(pts []geom.Point) *antenna.Assignment {
		return func(pts []geom.Point) *antenna.Assignment {
			tree := mst.Euclidean(pts)
			tour, _ := core.BestTour(tree)
			asg, _ := core.OrientTour(tree, tour, k, 0)
			return asg
		}
	}
	coverBuild := func(pts []geom.Point) *antenna.Assignment {
		asg, _ := core.OrientFullCover(mst.Euclidean(pts), 2, core.Phi2Full, false)
		return asg
	}
	batsBuild := func(pts []geom.Point) *antenna.Assignment {
		asg, _ := core.OrientBoundedAngleTree(mst.Euclidean(pts), 1, core.Phi1Full)
		return asg
	}
	return []ivConfig{
		// Symmetric fast path + DynConn maintenance.
		{"cover-symmetric", verify.Budgets{K: 2, Phi: core.Phi2Full, RadiusBound: 1, Symmetric: true}, coverBuild},
		{"bats-symmetric", verify.Budgets{K: 1, Phi: core.Phi1Full, RadiusBound: 1, Symmetric: true}, batsBuild},
		// Plain strong: Tarjan over the maintained digraph.
		{"tour-k1-strong", verify.Budgets{K: 1, Phi: 0, RadiusBound: 3}, tourBuild(1)},
		// Brute c-connectivity path (kept small: the audit is O(n·SCC)).
		{"tour-k2-c2", verify.Budgets{K: 2, Phi: 0, RadiusBound: 3, StrongC: 2, Symmetric: true}, tourBuild(2)},
	}
}

// churnStep mutates pts randomly: a few removals, arrivals, and drifts.
// Returns newPts and the old2new mapping (solution.PlanOps semantics:
// drifted sensors are removed + re-added, keeping the verifier's
// stable-id contract honest).
func churnStep(rng *rand.Rand, pts []geom.Point) ([]geom.Point, []int) {
	old2new := make([]int, len(pts))
	removed := map[int]bool{}
	nRemove := rng.Intn(3)
	nDrift := rng.Intn(3)
	for i := 0; i < nRemove+nDrift && len(pts)-len(removed) > 20; i++ {
		removed[rng.Intn(len(pts))] = true
	}
	var newPts []geom.Point
	for i, p := range pts {
		if removed[i] {
			old2new[i] = -1
			continue
		}
		old2new[i] = len(newPts)
		newPts = append(newPts, p)
	}
	for a := rng.Intn(3); a >= 0; a-- {
		newPts = append(newPts, geom.Point{X: rng.Float64() * 60, Y: rng.Float64() * 60})
	}
	return newPts, old2new
}

// dirtyByValue computes the honest dirty set: every fresh index plus
// every survivor whose sector values differ from its previous revision.
func dirtyByValue(prev, next *antenna.Assignment, old2new []int) []int {
	mapped := make([]int, next.N())
	for i := range mapped {
		mapped[i] = -1
	}
	for o, n := range old2new {
		if n >= 0 {
			mapped[n] = o
		}
	}
	var dirty []int
	for i := 0; i < next.N(); i++ {
		o := mapped[i]
		if o < 0 || !sectorValuesEqual(prev.Sectors[o], next.Sectors[i]) {
			dirty = append(dirty, i)
		}
	}
	return dirty
}

func sectorValuesEqual(a, b []geom.Sector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Start != b[i].Start || a[i].Spread != b[i].Spread || a[i].Radius != b[i].Radius {
			return false
		}
	}
	return true
}

func compareReports(t *testing.T, cfg string, step int, inc, full *verify.Report) {
	t.Helper()
	if inc.OK() != full.OK() {
		t.Fatalf("%s step %d: verdict diverged: incremental OK=%v (%v), full OK=%v (%v)",
			cfg, step, inc.OK(), inc.Errors, full.OK(), full.Errors)
	}
	if inc.Edges != full.Edges || inc.Strong != full.Strong || inc.Symmetric != full.Symmetric ||
		inc.SCCCount != full.SCCCount || inc.LargestSCC != full.LargestSCC ||
		inc.CConnected != full.CConnected || inc.MaxAntennas != full.MaxAntennas {
		t.Fatalf("%s step %d: structure diverged:\n  inc:  %s\n  full: %s", cfg, step, inc, full)
	}
	if inc.MaxRadius != full.MaxRadius || inc.MaxSpread != full.MaxSpread || inc.LMax != full.LMax {
		t.Fatalf("%s step %d: stats diverged: inc radius=%v spread=%v lmax=%v, full radius=%v spread=%v lmax=%v",
			cfg, step, inc.MaxRadius, inc.MaxSpread, inc.LMax, full.MaxRadius, full.MaxSpread, full.LMax)
	}
}

func sameDigraph(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestIncrementalVerifierCrossCheck drives the maintained verifier with
// random churn and asserts, after every delta, that the maintained
// digraph and every report field match a from-scratch Check.
func TestIncrementalVerifierCrossCheck(t *testing.T) {
	steps, n := 30, 140
	if testing.Short() {
		steps, n = 8, 60
	}
	for _, cfg := range ivConfigs(t) {
		if cfg.b.StrongC > 1 {
			// The brute c-connectivity audit is exponential in c and
			// linear×SCC in n; keep this configuration small.
			if n > 60 {
				n = 60
			}
		}
		t.Run(cfg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = geom.Point{X: rng.Float64() * 60, Y: rng.Float64() * 60}
			}
			asg := cfg.build(pts)
			iv := verify.NewIncremental(asg, cfg.b)
			for step := 0; step < steps; step++ {
				newPts, old2new := churnStep(rng, pts)
				next := cfg.build(newPts)
				dirty := dirtyByValue(asg, next, old2new)
				lmax := mst.Euclidean(newPts).LMax()
				grid := spatial.NewGrid(newPts, 0)

				inc := iv.Apply(next, grid, old2new, dirty, lmax)
				b := cfg.b
				b.KnownLMax = lmax
				full := verify.Check(next, b)
				compareReports(t, cfg.name, step, inc, full)
				if !sameDigraph(iv.Digraph().Adj, next.InducedDigraph().Adj) {
					t.Fatalf("%s step %d: maintained digraph diverged from fresh build", cfg.name, step)
				}
				pts, asg = newPts, next
			}
		})
	}
}

// TestIncrementalVerifierDetectsFailure corrupts a dirty sensor so the
// network splits and checks the incremental verdict fails exactly like
// the from-scratch one.
func TestIncrementalVerifierDetectsFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 80
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 40, Y: rng.Float64() * 40}
	}
	b := verify.Budgets{K: 2, Phi: core.Phi2Full, RadiusBound: 1, Symmetric: true}
	asg, _ := core.OrientFullCover(mst.Euclidean(pts), 2, core.Phi2Full, false)
	iv := verify.NewIncremental(asg, b)

	// Same point set, but one sensor goes deaf (sectors dropped).
	old2new := make([]int, n)
	for i := range old2new {
		old2new[i] = i
	}
	next := antenna.New(pts)
	for i := range pts {
		next.Sectors[i] = asg.Sectors[i]
	}
	victim := 17
	next.Sectors[victim] = nil
	lmax := mst.Euclidean(pts).LMax()

	inc := iv.Apply(next, nil, old2new, []int{victim}, lmax)
	bb := b
	bb.KnownLMax = lmax
	full := verify.Check(next, bb)
	if inc.OK() || full.OK() {
		t.Fatalf("expected both audits to fail: inc=%v full=%v", inc.OK(), full.OK())
	}
	compareReports(t, "corruption", 0, inc, full)
	if !sameDigraph(iv.Digraph().Adj, next.InducedDigraph().Adj) {
		t.Fatalf("maintained digraph diverged after corruption")
	}
}

// TestIncrementalVerifierContractViolations: malformed deltas latch the
// structure broken rather than corrupting it silently.
func TestIncrementalVerifierContractViolations(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 40
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 40, Y: rng.Float64() * 40}
	}
	b := verify.Budgets{K: 2, Phi: core.Phi2Full, RadiusBound: 1, Symmetric: true}
	asg, _ := core.OrientFullCover(mst.Euclidean(pts), 2, core.Phi2Full, false)
	iv := verify.NewIncremental(asg, b)

	if rep := iv.Apply(asg, nil, []int{0, 1}, nil, 1); rep.OK() {
		t.Fatalf("short old2new must fail")
	}
	// Broken latches: even a well-formed delta now fails until rebuild.
	old2new := make([]int, n)
	for i := range old2new {
		old2new[i] = i
	}
	if rep := iv.Apply(asg, nil, old2new, nil, 1); rep.OK() {
		t.Fatalf("broken verifier must stay broken")
	}
	iv = verify.NewIncremental(asg, b)
	if rep := iv.Apply(asg, nil, old2new, nil, -1); rep.OK() {
		t.Fatalf("non-positive knownLMax must fail")
	}
}
