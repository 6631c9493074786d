package mst

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/pointset"
)

// emstFamilies generates the input families the O(n log n) substrate must
// agree with dense Prim on: uniform, clustered, exactly collinear,
// duplicate-heavy, and integer-lattice (massively cocircular) point sets.
func emstFamilies(rng *rand.Rand, n int) map[string][]geom.Point {
	uniform := pointset.Uniform(rng, n, math.Sqrt(float64(n))+1)
	clustered := pointset.Clusters(rng, n, 1+n/60, 20, 0.4)
	collinear := make([]geom.Point, n)
	for i := range collinear {
		collinear[i] = geom.Point{X: float64(i) * 0.75, Y: -3}
	}
	dup := pointset.Uniform(rng, n, 8)
	for i := range dup {
		if rng.Intn(3) == 0 {
			dup[i] = dup[rng.Intn(len(dup))] // coincident sensors
		}
	}
	side := int(math.Sqrt(float64(n))) + 1
	lattice := make([]geom.Point, 0, n)
	for i := 0; i < n; i++ {
		lattice = append(lattice, geom.Point{X: float64(i % side), Y: float64(i / side)})
	}
	return map[string][]geom.Point{
		"uniform":   uniform,
		"clustered": clustered,
		"collinear": collinear,
		"duplicate": dup,
		"lattice":   lattice,
	}
}

func normalizedEdges(t *Tree) [][2]int {
	es := make([][2]int, 0, len(t.Edges()))
	for _, e := range t.Edges() {
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		es = append(es, [2]int{u, v})
	}
	sort.Slice(es, func(a, b int) bool {
		if es[a][0] != es[b][0] {
			return es[a][0] < es[b][0]
		}
		return es[a][1] < es[b][1]
	})
	return es
}

func allPairwiseDistinct(pts []geom.Point) bool {
	seen := make(map[uint64]bool, len(pts)*len(pts)/2)
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			b := math.Float64bits(pts[i].Dist2(pts[j]))
			if seen[b] {
				return false
			}
			seen[b] = true
		}
	}
	return true
}

func checkEMSTAgainstPrim(t *testing.T, label string, pts []geom.Point) {
	t.Helper()
	ref, got := Prim(pts), Delaunay(pts)
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: invalid tree: %v", label, err)
	}
	if dw := math.Abs(got.TotalLength() - ref.TotalLength()); dw > 1e-6 {
		t.Fatalf("%s: weight %v != Prim %v (Δ=%v)", label, got.TotalLength(), ref.TotalLength(), dw)
	}
	if math.Abs(got.LMax()-ref.LMax()) > 1e-6 {
		t.Fatalf("%s: bottleneck %v != Prim %v", label, got.LMax(), ref.LMax())
	}
	// With all pairwise distances distinct the EMST is unique, so the
	// edge sets must agree exactly (weight ties permit different but
	// equally-light trees).
	if len(pts) <= 220 && allPairwiseDistinct(pts) {
		ge, re := normalizedEdges(got), normalizedEdges(ref)
		if len(ge) != len(re) {
			t.Fatalf("%s: %d edges vs Prim's %d", label, len(ge), len(re))
		}
		for i := range ge {
			if ge[i] != re[i] {
				t.Fatalf("%s: edge %d is %v, Prim has %v", label, i, ge[i], re[i])
			}
		}
	}
}

// TestEMSTEquivalenceProperty is the acceptance property for the fast
// substrate: the Delaunay-filtered Kruskal must reproduce dense Prim's
// EMST — edge set when unique, total weight and
// bottleneck always — across every input family.
func TestEMSTEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2009))
	for trial := 0; trial < 8; trial++ {
		n := 20 + rng.Intn(481) // up to 500
		for label, pts := range emstFamilies(rng, n) {
			checkEMSTAgainstPrim(t, label, pts)
		}
	}
}

// FuzzEMSTEquivalence decodes arbitrary bytes into a small point set and
// asserts the same equivalence; the seed corpus covers the structured
// degeneracies (collinear runs, duplicates, lattices).
func FuzzEMSTEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 1, 1, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})          // all duplicates
	f.Add([]byte{0, 0, 1, 0, 2, 0, 3, 0, 4, 0})    // collinear
	f.Add([]byte{0, 0, 0, 1, 1, 0, 1, 1, 2, 0, 2}) // lattice fragment
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 || len(data) > 400 {
			t.Skip()
		}
		pts := make([]geom.Point, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			pts = append(pts, geom.Point{X: float64(int8(data[i])) / 4, Y: float64(int8(data[i+1])) / 4})
		}
		ref := Prim(pts)
		got := Delaunay(pts)
		if err := got.Validate(); err != nil {
			t.Fatalf("invalid tree: %v", err)
		}
		if math.Abs(got.TotalLength()-ref.TotalLength()) > 1e-6 {
			t.Fatalf("weight %v != Prim %v", got.TotalLength(), ref.TotalLength())
		}
	})
}

// TestRadixSortU64 pins the radix sort against the library sort.
func TestRadixSortU64(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(5000)
		keys := make([]uint64, n)
		for i := range keys {
			switch trial % 3 {
			case 0:
				keys[i] = rng.Uint64()
			case 1:
				keys[i] = math.Float64bits(rng.Float64() * 100)
			default:
				keys[i] = uint64(rng.Intn(4)) // heavy ties
			}
		}
		want := append([]uint64(nil), keys...)
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		radixSortU64(keys, make([]uint64, len(keys)))
		for i := range keys {
			if keys[i] != want[i] {
				t.Fatalf("trial %d: index %d: %d != %d", trial, i, keys[i], want[i])
			}
		}
	}
}
