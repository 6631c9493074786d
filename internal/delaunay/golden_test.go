package delaunay

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/pointset"
)

// goldenInputs returns the named point sets TestBuildGolden pins: every
// generator family at sizes on both sides of the parallel cutoff, plus
// two tie-laden inputs (an integer lattice, where every unit square is
// cocircular, and a lattice with exact duplicates).
func goldenInputs() map[string][]geom.Point {
	in := make(map[string][]geom.Point)
	for _, family := range pointset.WorkloadNames() {
		for _, n := range []int{50, 1000, 5000, 20000} {
			in[fmt.Sprintf("%s/n=%d", family, n)] = pointset.Workload(family, rand.New(rand.NewSource(int64(n))), n)
		}
	}
	in["lattice/80x80"] = pointset.Grid(80, 80, 1)
	dup := pointset.Grid(60, 100, 1)
	in["lattice-dup/6000+500"] = append(dup, dup[:500]...)
	return in
}

// goldenDigests holds the first 16 hex digits of the sha256 of
// fmt.Sprint(Triangles, Edges()) at workers 1, 2 and 4. The workers=1
// column pins how the serial schedule resolves exact ties; the others pin
// the round schedule (inputs below the parallel cutoff run serially at
// every worker count).
var goldenDigests = map[string][3]string{
	"annulus/n=1000":       {"f68da416d9ac0864", "f68da416d9ac0864", "f68da416d9ac0864"},
	"annulus/n=20000":      {"78cd3ce8dc57fba6", "78cd3ce8dc57fba6", "78cd3ce8dc57fba6"},
	"annulus/n=50":         {"1ce1fa2df36b44a9", "1ce1fa2df36b44a9", "1ce1fa2df36b44a9"},
	"annulus/n=5000":       {"2fc0c3ad0f18aefa", "2fc0c3ad0f18aefa", "2fc0c3ad0f18aefa"},
	"clusters/n=1000":      {"e81075457059258b", "e81075457059258b", "e81075457059258b"},
	"clusters/n=20000":     {"5c36f84aa286386c", "5c36f84aa286386c", "5c36f84aa286386c"},
	"clusters/n=50":        {"df7b00be36727317", "df7b00be36727317", "df7b00be36727317"},
	"clusters/n=5000":      {"20f7448bd587f2f3", "20f7448bd587f2f3", "20f7448bd587f2f3"},
	"grid/n=1000":          {"6159d1e8ee2af3fd", "6159d1e8ee2af3fd", "6159d1e8ee2af3fd"},
	"grid/n=20000":         {"b2605d77a63260ac", "b2605d77a63260ac", "b2605d77a63260ac"},
	"grid/n=50":            {"9723297cc7d60291", "9723297cc7d60291", "9723297cc7d60291"},
	"grid/n=5000":          {"9da988247edf69b3", "9da988247edf69b3", "9da988247edf69b3"},
	"lattice-dup/6000+500": {"f31e555eabbd54ae", "9db679f58ef87e65", "9db679f58ef87e65"},
	"lattice/80x80":        {"d2104c9c35d938f9", "5b88b0b3dd1e1466", "5b88b0b3dd1e1466"},
	"line/n=1000":          {"a0e2ea4c96caf68f", "a0e2ea4c96caf68f", "a0e2ea4c96caf68f"},
	"line/n=20000":         {"38030fd4fc461567", "38030fd4fc461567", "38030fd4fc461567"},
	"line/n=50":            {"e900bdcdd623fc1f", "e900bdcdd623fc1f", "e900bdcdd623fc1f"},
	"line/n=5000":          {"bf82f9a08c859359", "bf82f9a08c859359", "bf82f9a08c859359"},
	"stars/n=1000":         {"cf57b6b8ce0cebcf", "cf57b6b8ce0cebcf", "cf57b6b8ce0cebcf"},
	"stars/n=20000":        {"6b03b645637f2d01", "6b03b645637f2d01", "6b03b645637f2d01"},
	"stars/n=50":           {"5f2cc02102e7dbac", "5f2cc02102e7dbac", "5f2cc02102e7dbac"},
	"stars/n=5000":         {"b4298b9ef0fb4511", "b4298b9ef0fb4511", "b4298b9ef0fb4511"},
	"uniform/n=1000":       {"213753bc266e3d67", "213753bc266e3d67", "213753bc266e3d67"},
	"uniform/n=20000":      {"594a1dbfe60e9104", "594a1dbfe60e9104", "594a1dbfe60e9104"},
	"uniform/n=50":         {"722a255299f84620", "722a255299f84620", "722a255299f84620"},
	"uniform/n=5000":       {"4994ffebebb7fb60", "4994ffebebb7fb60", "4994ffebebb7fb60"},
}

func buildDigest(t *testing.T, pts []geom.Point, workers int) string {
	t.Helper()
	tri, err := BuildWorkers(pts, workers)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(fmt.Sprint(tri.Triangles, tri.Edges())))
	return hex.EncodeToString(sum[:8])
}

// TestBuildGolden pins the exact bytes of the triangulation for fixed
// inputs at several worker counts, so a change to either insertion
// schedule that alters which triangles come out — including how exact
// cocircular ties and duplicates are resolved — fails here.
func TestBuildGolden(t *testing.T) {
	for name, pts := range goldenInputs() {
		var got [3]string
		for i, w := range []int{1, 2, 4} {
			got[i] = buildDigest(t, pts, w)
		}
		if want, ok := goldenDigests[name]; !ok || got != want {
			t.Errorf("%q: got {%q, %q, %q}, want %q", name, got[0], got[1], got[2], want)
		}
	}
}
