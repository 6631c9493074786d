package mst

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/pointset"
)

func TestPrimSmallKnown(t *testing.T) {
	// Unit square plus center: MST total length is minimal.
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 1}}
	tr := Prim(pts)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.TotalLength(); math.Abs(got-3) > 1e-9 {
		t.Fatalf("TotalLength = %v, want 3", got)
	}
	if got := tr.LMax(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("LMax = %v, want 1", got)
	}
}

func TestPrimDegenerate(t *testing.T) {
	if tr := Prim(nil); tr.N() != 0 || len(tr.Edges()) != 0 {
		t.Fatal("empty Prim wrong")
	}
	if err := Prim(nil).Validate(); err != nil {
		t.Fatal(err)
	}
	tr := Prim([]geom.Point{{X: 1, Y: 1}})
	if len(tr.Edges()) != 0 || tr.LMax() != 0 {
		t.Fatal("single-point Prim wrong")
	}
	tr = Prim([]geom.Point{{X: 0, Y: 0}, {X: 3, Y: 4}})
	if len(tr.Edges()) != 1 || math.Abs(tr.LMax()-5) > 1e-9 {
		t.Fatal("two-point Prim wrong")
	}
}

func TestEuclideanMaxDegree5(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		pts := pointset.Uniform(rng, 10+rng.Intn(300), 10)
		tr := Euclidean(pts)
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		if d := tr.MaxDegree(); d > 5 {
			t.Fatalf("trial %d: max degree %d > 5", trial, d)
		}
	}
}

func TestRepairDegreeHexagon(t *testing.T) {
	// Perfect hexagon + center: the center has degree 6 in one valid MST.
	pts := pointset.RegularPolygonStar(6, 1)
	center := len(pts) - 1
	edges := make([][2]int, 0, 6)
	for i := 0; i < 6; i++ {
		edges = append(edges, [2]int{center, i})
	}
	tr := newTree(pts, edges)
	if tr.Degree(center) != 6 {
		t.Fatal("setup: center should have degree 6")
	}
	lmaxBefore := tr.LMax()
	fixed := RepairDegree(tr, 5)
	if err := fixed.Validate(); err != nil {
		t.Fatal(err)
	}
	if fixed.MaxDegree() > 5 {
		t.Fatalf("repair failed: max degree %d", fixed.MaxDegree())
	}
	if fixed.LMax() > lmaxBefore+1e-9 {
		t.Fatalf("repair grew the bottleneck: %v > %v", fixed.LMax(), lmaxBefore)
	}
}

func TestRepairDegreeNoop(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}}
	tr := Prim(pts)
	if got := RepairDegree(tr, 5); got != tr {
		t.Fatal("no-op repair should return the same tree")
	}
}

func TestGridMSTDegree(t *testing.T) {
	// Exact lattices are heavy with ties; the repaired tree must still be
	// a valid spanning tree with degree <= 5.
	pts := pointset.Grid(8, 8, 1)
	tr := Euclidean(pts)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.MaxDegree() > 5 {
		t.Fatalf("grid MST degree %d > 5", tr.MaxDegree())
	}
	if math.Abs(tr.LMax()-1) > 1e-9 {
		t.Fatalf("grid LMax = %v", tr.LMax())
	}
}

func TestUndirectedConversion(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}}
	g := Prim(pts).Undirected()
	if !g.IsTree() {
		t.Fatal("undirected MST should be a tree")
	}
	if math.Abs(g.TotalWeight()-2) > 1e-9 {
		t.Fatalf("TotalWeight = %v", g.TotalWeight())
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}}
	// Cycle.
	bad := newTree(pts, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	if bad.Validate() == nil {
		t.Fatal("cycle not caught")
	}
	// Wrong count.
	bad = newTree(pts, [][2]int{{0, 1}})
	if bad.Validate() == nil {
		t.Fatal("edge count not caught")
	}
	// Out of range.
	bad = newTree(pts, [][2]int{{0, 1}, {1, 7}})
	if bad.Validate() == nil {
		t.Fatal("out of range not caught")
	}
	// Disconnected with self-ish duplicate edges.
	bad = newTree(pts, [][2]int{{0, 1}, {0, 1}})
	if bad.Validate() == nil {
		t.Fatal("duplicate edge not caught")
	}
}
