package repro

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mst"
	"repro/internal/pointset"
	"repro/internal/service"
	"repro/internal/solution"
)

// solveOnce runs one cold full solve (fresh engine, so the answer cannot
// come out of a cache warmed under a different parallelism level).
func solveOnce(t *testing.T, pts []geom.Point) *solution.Solution {
	t.Helper()
	eng := service.NewEngine(service.Options{})
	sol, _, err := eng.Solve(context.Background(),
		service.Request{Pts: pts, K: 2, Phi: core.Phi2Full, Algo: "cover"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.VerifyErrors) > 0 {
		t.Fatalf("verification failed: %v", sol.VerifyErrors)
	}
	return sol
}

// TestSolveDeterministicAcrossGOMAXPROCS is the end-to-end companion to
// the substrate-level determinism tests in internal/delaunay: a full
// verified solve — parallel Delaunay, Borůvka EMST, orientation, parallel
// verification — must emit byte-identical sectors and an identical EMST
// whether the runtime runs on one P or eight. n is chosen above the
// Delaunay parallelCutoff (4096) so the parallel insertion path actually
// engages when GOMAXPROCS > 1. Run under -race in CI, where it doubles as
// a data-race probe over the whole pipeline.
func TestSolveDeterministicAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("full solves at n=6000 across families")
	}
	const n = 6000
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	for _, fam := range pointset.WorkloadNames() {
		t.Run(fam, func(t *testing.T) {
			pts := pointset.Workload(fam, rand.New(rand.NewSource(7001)), n)

			runtime.GOMAXPROCS(1)
			ref := solveOnce(t, pts)
			refTree := mst.Euclidean(pts)

			runtime.GOMAXPROCS(8)
			got := solveOnce(t, pts)
			gotTree := mst.Euclidean(pts)
			runtime.GOMAXPROCS(prev)

			if !reflect.DeepEqual(ref.Sectors, got.Sectors) {
				t.Fatal("sectors differ between GOMAXPROCS=1 and GOMAXPROCS=8")
			}
			if !reflect.DeepEqual(refTree.Edges(), gotTree.Edges()) {
				t.Fatal("EMST edges differ between GOMAXPROCS=1 and GOMAXPROCS=8")
			}
			if refTree.LMax() != gotTree.LMax() {
				t.Fatalf("EMST bottleneck differs: %v vs %v", refTree.LMax(), gotTree.LMax())
			}
		})
	}
}
