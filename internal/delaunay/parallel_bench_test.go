package delaunay

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// benchPoints generates points directly (no minimum-separation rejection)
// so benchmark setup stays O(n) even at n=10⁶.
func benchPoints(n int) []geom.Point {
	rng := rand.New(rand.NewSource(5))
	side := 3.16227766 // ~sqrt(10): keeps density constant as n scales
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * side * float64(n) / 1000, Y: rng.Float64() * side * float64(n) / 1000}
	}
	return pts
}

// BenchmarkBuildWorkers pins the serial-vs-parallel build comparison the
// CI multicore smoke job reads the speedup criterion from. workers=1 is
// the serial schedule; the round schedule only beats it when GOMAXPROCS
// grants it enough real processors (it loses at workers=2 on two).
func BenchmarkBuildWorkers(b *testing.B) {
	for _, n := range []int{100_000} {
		pts := benchPoints(n)
		for _, w := range []int{1, 4} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := BuildWorkers(pts, w); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
