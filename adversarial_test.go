package repro

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/delaunay"
	"repro/internal/geom"
	"repro/internal/mst"
	"repro/internal/service"
)

// adversarialFamilies are the classic killers of floating-point
// incremental Delaunay: exact collinearity (every orientation test is a
// tie), exact cocircularity (every incircle test is a tie), exact
// duplicates, the integer lattice (both tie classes at once, everywhere),
// and near-degenerate jitter at the edge of double precision (the regime
// where a naive predicate's sign flips). Sizes are kept moderate because
// ties force the exact-arithmetic fallback of the adaptive predicates —
// the point is coverage, not throughput.
func adversarialFamilies() map[string][]geom.Point {
	fams := make(map[string][]geom.Point)

	line := make([]geom.Point, 0, 2000)
	for i := 0; i < 2000; i++ {
		line = append(line, geom.Point{X: float64(i) * 0.75, Y: 3})
	}
	fams["collinear"] = line

	circ := make([]geom.Point, 0, 600)
	for i := 0; i < 600; i++ {
		a := 2 * math.Pi * float64(i) / 600
		circ = append(circ, geom.Point{X: 50 * math.Cos(a), Y: 50 * math.Sin(a)})
	}
	fams["cocircular"] = circ

	dup := make([]geom.Point, 0, 550)
	for i := 0; i < 500; i++ {
		dup = append(dup, geom.Point{X: float64(i % 25), Y: float64(i / 25)})
	}
	dup = append(dup, dup[:50]...) // 50 exact duplicates
	fams["duplicate"] = dup

	lattice := make([]geom.Point, 0, 1600)
	for r := 0; r < 40; r++ {
		for c := 0; c < 40; c++ {
			lattice = append(lattice, geom.Point{X: float64(c), Y: float64(r)})
		}
	}
	fams["lattice"] = lattice

	rng := rand.New(rand.NewSource(99))
	near := make([]geom.Point, 0, 1500)
	for i := 0; i < 1500; i++ {
		// Almost-collinear: y displacements of ~1e-9 around an exact line,
		// the band where a float orientation determinant loses its sign.
		near = append(near, geom.Point{
			X: float64(i) * 0.5,
			Y: 7 + (rng.Float64()-0.5)*2e-9,
		})
	}
	fams["near-degenerate"] = near
	return fams
}

// TestAdversarialSubstrate drives every degenerate family through the
// full substrate stack: the Delaunay build must produce a structurally
// valid triangulation (or a valid chain for dimension-collapsed input),
// and the EMST must validate as a spanning tree with a positive
// bottleneck. Exact ties land on the adaptive predicates' exact paths,
// so any filter bug shows up here as a corrupt mesh, not a wrong digit.
func TestAdversarialSubstrate(t *testing.T) {
	for name, pts := range adversarialFamilies() {
		t.Run(name, func(t *testing.T) {
			tri, err := delaunay.Build(pts)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			if err := tri.Validate(); err != nil {
				t.Fatalf("triangulation invalid: %v", err)
			}
			if tri.NumEdges() < len(pts)-1 {
				t.Fatalf("substrate too sparse to span: %d edges for %d points", tri.NumEdges(), len(pts))
			}
			tree := mst.Euclidean(pts)
			if err := tree.Validate(); err != nil {
				t.Fatalf("EMST invalid: %v", err)
			}
			if name != "duplicate" && tree.LMax() <= 0 {
				t.Fatal("EMST bottleneck vanished")
			}
		})
	}
}

// TestAdversarialVerifiedSolve runs the same families through the whole
// engine path — plan-free cover orientation plus the independent
// verifier — and requires a clean verification report: connected under
// budget on every degenerate deployment, with the verifier's own EMST
// rebuilt from the same degenerate geometry.
func TestAdversarialVerifiedSolve(t *testing.T) {
	eng := service.NewEngine(service.Options{})
	for name, pts := range adversarialFamilies() {
		t.Run(name, func(t *testing.T) {
			sol, _, err := eng.Solve(context.Background(),
				service.Request{Pts: pts, K: 2, Phi: core.Phi2Full, Algo: "cover"})
			if err != nil {
				t.Fatalf("solve: %v", err)
			}
			if len(sol.VerifyErrors) > 0 {
				t.Fatalf("verification failed: %v", sol.VerifyErrors)
			}
			if !sol.Verified {
				t.Fatal("solution not verified")
			}
		})
	}
}

// TestAdversarialParallelBuildDeterminism pins what determinism means on
// tie-raddled input at sizes that cross the parallel cutoff. A lattice's
// Delaunay triangulation is NOT unique (every unit square is cocircular,
// so either diagonal is valid), and the serial insertion loop and the
// chunked parallel merge legitimately resolve those ties differently.
// What must hold: the parallel path is byte-identical across worker
// counts and repeated runs, every variant validates, and the triangle and
// edge counts agree — Euler's formula fixes both (2n-2-h and 3n-3-h)
// regardless of which diagonals the ties chose. (Byte-identity between
// workers=1 and workers=N on general-position input is covered in
// internal/delaunay; ties are exactly where that equivalence ends.)
func TestAdversarialParallelBuildDeterminism(t *testing.T) {
	lattice := make([]geom.Point, 0, 6400)
	for r := 0; r < 80; r++ {
		for c := 0; c < 80; c++ {
			lattice = append(lattice, geom.Point{X: float64(c), Y: float64(r)})
		}
	}
	serial, err := delaunay.BuildWorkers(lattice, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.Validate(); err != nil {
		t.Fatalf("serial lattice triangulation invalid: %v", err)
	}
	ref, err := delaunay.BuildWorkers(lattice, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8} {
		par, err := delaunay.BuildWorkers(lattice, w)
		if err != nil {
			t.Fatal(err)
		}
		if err := par.Validate(); err != nil {
			t.Fatalf("workers=%d lattice triangulation invalid: %v", w, err)
		}
		if fmt.Sprint(par.Triangles) != fmt.Sprint(ref.Triangles) || fmt.Sprint(par.Edges()) != fmt.Sprint(ref.Edges()) {
			t.Fatalf("parallel lattice triangulation diverges at workers=%d", w)
		}
		if len(par.Triangles) != len(serial.Triangles) || par.NumEdges() != serial.NumEdges() {
			t.Fatalf("workers=%d triangle/edge counts (%d/%d) disagree with serial (%d/%d)",
				w, len(par.Triangles), par.NumEdges(), len(serial.Triangles), serial.NumEdges())
		}
	}
}
