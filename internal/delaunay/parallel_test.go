package delaunay

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/pointset"
)

// TestParallelMatchesSerial pins the round schedule byte-identical to the
// serial schedule across the generator families, at a size above
// the parallel cutoff and at several worker counts.
func TestParallelMatchesSerial(t *testing.T) {
	n := parallelCutoff + 1500
	for _, family := range pointset.WorkloadNames() {
		pts := pointset.Workload(family, rand.New(rand.NewSource(99)), n)
		serial, err := BuildWorkers(pts, 1)
		if err != nil {
			t.Fatalf("%s: serial build: %v", family, err)
		}
		for _, workers := range []int{2, 3, 8} {
			par, err := BuildWorkers(pts, workers)
			if err != nil {
				t.Fatalf("%s: parallel build (workers=%d): %v", family, workers, err)
			}
			if !reflect.DeepEqual(serial.Triangles, par.Triangles) {
				t.Fatalf("%s: triangles diverge at workers=%d (serial %d, parallel %d)",
					family, workers, len(serial.Triangles), len(par.Triangles))
			}
			if !reflect.DeepEqual(serial.Edges(), par.Edges()) {
				t.Fatalf("%s: edge sets diverge at workers=%d (serial %d, parallel %d)",
					family, workers, serial.NumEdges(), par.NumEdges())
			}
		}
	}
}

// TestParallelValidates runs the O(n·t) empty-circumcircle audit on a
// parallel build: the concurrent commits must leave a true Delaunay mesh.
func TestParallelValidates(t *testing.T) {
	pts := pointset.Uniform(rand.New(rand.NewSource(7)), parallelCutoff+200, 70)
	tri, err := BuildWorkers(pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tri.Triangles) == 0 {
		t.Fatal("no triangles")
	}
	if err := tri.Validate(); err != nil {
		t.Fatal(err)
	}
}
