package verify

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/antenna"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/pointset"
)

func ringAssignment(n int, radius float64) *antenna.Assignment {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Polar(geom.Point{}, geom.TwoPi*float64(i)/float64(n), radius)
	}
	a := antenna.New(pts)
	for i := range pts {
		a.AddRayTo(i, (i+1)%n, pts[i].Dist(pts[(i+1)%n]))
	}
	return a
}

func TestCheckHappyPath(t *testing.T) {
	a := ringAssignment(10, 5)
	rep := Check(a, Budgets{K: 1, Phi: 0, RadiusBound: 1.1})
	if !rep.OK() {
		t.Fatalf("ring failed: %s", rep.String())
	}
	if !rep.Strong || rep.SCCCount != 1 || rep.LargestSCC != 10 {
		t.Fatalf("bad report: %+v", rep)
	}
	if rep.Edges != 10 {
		t.Fatalf("edges = %d", rep.Edges)
	}
	if math.Abs(rep.RadiusRatio-1) > 1e-6 {
		t.Fatalf("radius ratio = %v (ring hops equal l_max)", rep.RadiusRatio)
	}
}

func TestCheckDetectsDisconnection(t *testing.T) {
	a := ringAssignment(10, 5)
	// Cut one antenna: the ring becomes a path.
	a.Sectors[3] = nil
	rep := Check(a, Budgets{K: 1, Phi: 0})
	if rep.OK() || rep.Strong {
		t.Fatal("broken ring passed verification")
	}
	if rep.SCCCount <= 1 {
		t.Fatalf("SCCCount = %d", rep.SCCCount)
	}
	if !strings.Contains(rep.String(), "ERROR") {
		t.Fatalf("String() lacks errors: %q", rep.String())
	}
}

func TestCheckDetectsBudgetViolations(t *testing.T) {
	a := ringAssignment(6, 5)
	// Antenna count violation.
	a.AddRayTo(0, 2, 10)
	rep := Check(a, Budgets{K: 1, Phi: 0})
	if rep.OK() {
		t.Fatal("antenna budget violation passed")
	}
	// Spread violation.
	a = ringAssignment(6, 5)
	a.Sectors[0][0].Spread = 1.0
	rep = Check(a, Budgets{K: 1, Phi: 0.5})
	if rep.OK() {
		t.Fatal("spread violation passed")
	}
	// Radius violation: ring hop ratio is 1, demand 0.5.
	a = ringAssignment(6, 5)
	rep = Check(a, Budgets{K: 1, Phi: 0, RadiusBound: 0.5})
	if rep.OK() {
		t.Fatal("radius violation passed")
	}
	// Invalid sector.
	a = ringAssignment(6, 5)
	a.Sectors[0][0].Radius = math.NaN()
	rep = Check(a, Budgets{K: 1, Phi: 0})
	if rep.OK() {
		t.Fatal("NaN radius passed")
	}
}

func TestCheckCConnectivity(t *testing.T) {
	// Bidirectional complete graph on 4 points: strongly 2-connected.
	pts := pointset.Uniform(rand.New(rand.NewSource(1)), 4, 1)
	a := antenna.New(pts)
	for i := range pts {
		a.Add(i, geom.NewSector(0, geom.TwoPi, 10))
	}
	rep := Check(a, Budgets{K: 1, Phi: geom.TwoPi, StrongC: 2})
	if !rep.OK() || !rep.CConnected {
		t.Fatalf("complete graph should be 2-connected: %s", rep.String())
	}
	// Directed ring: not 2-connected.
	r := ringAssignment(5, 3)
	rep = Check(r, Budgets{K: 1, Phi: 0, StrongC: 2})
	if rep.CConnected {
		t.Fatal("ring reported 2-connected")
	}
}

func TestCheckTrivial(t *testing.T) {
	rep := Check(antenna.New(nil), Budgets{K: 1, Phi: 0})
	if !rep.OK() || !rep.Strong {
		t.Fatalf("empty: %+v", rep)
	}
	one := antenna.New([]geom.Point{{X: 1, Y: 1}})
	rep = Check(one, Budgets{K: 1, Phi: 0})
	if !rep.OK() || !rep.Strong {
		t.Fatalf("single: %+v", rep)
	}
	if !CheckStrong(one) {
		t.Fatal("CheckStrong single failed")
	}
}

// TestSymmetricConnectedAcrossBlocks: a mutual path whose edges cross
// the fan-out blocks connects below and above symParMin, and one
// one-way link anywhere on it disconnects.
func TestSymmetricConnectedAcrossBlocks(t *testing.T) {
	for _, n := range []int{7, symParMin - 1, symParMin + 3*symBlock/2} {
		for _, cut := range []int{-1, 0, symBlock - 1, n - 2} {
			if cut >= n-1 {
				continue
			}
			g := graph.NewDigraph(n)
			for u := 0; u+1 < n; u++ {
				g.AddEdge(u, u+1)
				if u != cut {
					g.AddEdge(u+1, u)
				}
				if u+3 < n {
					g.AddEdge(u, u+3) // one-way chords never count
				}
			}
			if got, want := SymmetricConnected(g), cut < 0; got != want {
				t.Errorf("n=%d cut=%d: SymmetricConnected = %v, want %v", n, cut, got, want)
			}
		}
	}
}
