// Package antenna models sensors equipped with directional antennae and
// builds the transmission digraph they induce: a directed edge u→v exists
// iff v lies inside the spread and range of one of u's antennae (the
// paper's communication model, Section 1.1).
package antenna

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/spatial"
)

// Assignment is a complete antenna orientation for a point set: one sector
// list per sensor. Sensors may hold fewer than k antennae when some are
// unused (an unused antenna is equivalent to a zero-spread antenna pointed
// anywhere, and costs no spread).
type Assignment struct {
	Pts     []geom.Point
	Sectors [][]geom.Sector
	// spatialIdx optionally carries a prebuilt grid over Pts (see
	// WithSpatialIndex); nil means InducedDigraph indexes on demand.
	spatialIdx *spatial.Grid
}

// New returns an empty assignment over the given sensors.
func New(pts []geom.Point) *Assignment {
	return &Assignment{Pts: pts, Sectors: make([][]geom.Sector, len(pts))}
}

// WithSpatialIndex attaches a prebuilt spatial grid over exactly this
// assignment's points, sparing InducedDigraph its own indexing pass. The
// grid is a deterministic pure function of the point set (the same
// spatial.NewGrid(pts, 0) the digraph build would run), so sharing one —
// as the live-instance repair path does with the EMST splice — changes
// no results. A grid over a different point count is ignored.
func (a *Assignment) WithSpatialIndex(g *spatial.Grid) *Assignment {
	a.spatialIdx = g
	return a
}

// Reserve pre-sizes every sensor's sector list to hold perSensor entries
// inside one shared backing array, so the common "exactly k antennae per
// sensor" orienters Add without any per-sensor allocation. Sensors that
// outgrow their reservation spill into a private slice on append — the
// capacity windows are disjoint, so a spill never clobbers a neighbor.
// Call right after New, before the first Add.
func (a *Assignment) Reserve(perSensor int) *Assignment {
	if perSensor <= 0 || len(a.Pts) == 0 {
		return a
	}
	backing := make([]geom.Sector, len(a.Pts)*perSensor)
	for u := range a.Sectors {
		off := u * perSensor
		a.Sectors[u] = backing[off : off : off+perSensor]
	}
	return a
}

// Add attaches a sector to sensor u.
func (a *Assignment) Add(u int, s geom.Sector) {
	a.Sectors[u] = append(a.Sectors[u], s)
}

// AddRay attaches a zero-spread antenna at u pointed at the target point,
// with the given radius.
func (a *Assignment) AddRay(u int, target geom.Point, radius float64) {
	a.Add(u, geom.RaySector(a.Pts[u], target, radius))
}

// AddRayTo attaches a zero-spread antenna at u pointed at sensor v.
func (a *Assignment) AddRayTo(u, v int, radius float64) {
	a.AddRay(u, a.Pts[v], radius)
}

// N returns the number of sensors.
func (a *Assignment) N() int { return len(a.Pts) }

// AntennaCount returns the number of sectors at sensor u.
func (a *Assignment) AntennaCount(u int) int { return len(a.Sectors[u]) }

// MaxAntennas returns the largest per-sensor antenna count.
func (a *Assignment) MaxAntennas() int {
	return int(a.maxOver(func(lo, hi int) float64 {
		best := 0
		for u := lo; u < hi; u++ {
			if len(a.Sectors[u]) > best {
				best = len(a.Sectors[u])
			}
		}
		return float64(best)
	}))
}

// SpreadAt returns the total angular spread used at sensor u.
func (a *Assignment) SpreadAt(u int) float64 {
	return geom.SectorUnionSpread(a.Sectors[u])
}

// MaxSpread returns the largest per-sensor total spread.
func (a *Assignment) MaxSpread() float64 {
	return a.maxOver(func(lo, hi int) float64 {
		var best float64
		for u := lo; u < hi; u++ {
			if s := a.SpreadAt(u); s > best {
				best = s
			}
		}
		return best
	})
}

// MaxRadius returns the largest antenna radius used anywhere.
func (a *Assignment) MaxRadius() float64 {
	return a.maxOver(func(lo, hi int) float64 {
		var best float64
		for u := lo; u < hi; u++ {
			if r := geom.MaxRadius(a.Sectors[u]); r > best {
				best = r
			}
		}
		return best
	})
}

// maxChunk is the sensor block size of the parallel reductions below.
const maxChunk = 4096

// maxOver reduces f — a pure max over a sensor range — across all
// sensors, fanning large assignments out by chunk. Max is commutative
// and duplicate-tolerant, so the result is identical for every worker
// count.
func (a *Assignment) maxOver(f func(lo, hi int) float64) float64 {
	n := a.N()
	if n < parallelDigraphMin {
		return f(0, n)
	}
	nc := (n + maxChunk - 1) / maxChunk
	partial := make([]float64, nc)
	par.For(0, nc, 1, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			end := (c + 1) * maxChunk
			if end > n {
				end = n
			}
			partial[c] = f(c*maxChunk, end)
		}
	})
	var best float64
	for _, v := range partial {
		if v > best {
			best = v
		}
	}
	return best
}

// Covers reports whether some antenna of u covers the point q.
func (a *Assignment) Covers(u int, q geom.Point) bool {
	secs := a.Sectors[u]
	for i := range secs {
		if secs[i].Contains(a.Pts[u], q) {
			return true
		}
	}
	return false
}

// CoversVertex reports whether some antenna of u covers sensor v.
func (a *Assignment) CoversVertex(u, v int) bool {
	return a.Covers(u, a.Pts[v])
}

// InducedDigraph builds the transmission digraph: edge u→v iff v lies in
// some sector of u. A spatial grid answers a radius query per sensor with
// that sensor's own largest radius — the paper's constructions size each
// antenna to its target, so per-sensor ranges are typically much smaller
// than the global maximum and the candidate set stays near-linear even on
// skewed assignments. Sector containment runs on the cached-vector fast
// path of geom.Sector.Contains.
func (a *Assignment) InducedDigraph() *graph.Digraph {
	n := a.N()
	g := graph.NewDigraph(n)
	hasRange := false
	for _, secs := range a.Sectors {
		if geom.MaxRadius(secs) > 0 {
			hasRange = true
			break
		}
	}
	if n == 0 || !hasRange {
		return g
	}
	idx := a.spatialIdx
	if idx == nil || idx.Len() != n {
		idx = spatial.NewGrid(a.Pts, 0)
	}
	// Deterministic fan-out: fixed sensor blocks, per-block edge buffers,
	// concatenated in block order. The grid and sectors are read-only
	// once built.
	workers := par.Workers(0)
	if n < parallelDigraphMin {
		workers = 1
	}
	eus := make([][]int32, (n+digraphBlock-1)/digraphBlock)
	evs := make([][]int32, len(eus))
	par.For(workers, n, digraphBlock, func(lo, hi int) {
		b := lo / digraphBlock
		eus[b], evs[b] = a.scanSensors(idx, lo, hi, make([]int32, 0, 4*(hi-lo)), make([]int32, 0, 4*(hi-lo)))
	})
	eu, ev := eus[0], evs[0] // one inline block when serial
	if workers > 1 {
		eu, ev = slices.Concat(eus...), slices.Concat(evs...)
	}
	// Build the adjacency in two counted passes sharing one backing array
	// (no per-vertex append churn).
	deg := make([]int, n)
	for _, u := range eu {
		deg[u]++
	}
	backing := make([]int, len(eu))
	off := 0
	for v := 0; v < n; v++ {
		g.Adj[v] = backing[off : off : off+deg[v]]
		off += deg[v]
	}
	for i, u := range eu {
		g.Adj[u] = append(g.Adj[u], int(ev[i]))
	}
	return g
}

// parallelDigraphMin is the sensor count below which InducedDigraph stays
// serial: fan-out overhead beats the win on small instances.
const parallelDigraphMin = 1024

// digraphBlock is InducedDigraph's fan-out grain: small enough that an
// instance at parallelDigraphMin still splits across two workers.
const digraphBlock = 512

// scanSensors appends the directed edges of sensors [lo, hi) to eu/ev and
// returns the extended slices. It only reads shared state, so disjoint
// ranges may run concurrently.
func (a *Assignment) scanSensors(idx *spatial.Grid, lo, hi int, eu, ev []int32) ([]int32, []int32) {
	pts := a.Pts
	var buf []int
	for u := lo; u < hi; u++ {
		secs := a.Sectors[u]
		if len(secs) == 0 {
			continue
		}
		pu := pts[u]
		buf = idx.Within(pu, geom.MaxRadius(secs), buf[:0])
		start := len(ev)
		for _, v := range buf {
			if v == u {
				continue
			}
			for si := range secs {
				if secs[si].Contains(pu, pts[v]) {
					eu = append(eu, int32(u))
					ev = append(ev, int32(v))
					break
				}
			}
		}
		// Sort just the accepted out-neighbors (typically a handful of
		// the candidates) so adjacency lists come out sorted — the
		// invariant HasEdge's binary search and Dedup rely on; candidates
		// are distinct by construction, so no dedup pass is needed.
		graph.InsertionSort(ev[start:])
	}
	return eu, ev
}

// Stats summarizes an assignment for reports.
type Stats struct {
	N          int
	MaxAnt     int
	MaxSpread  float64
	MaxRadius  float64
	MeanSpread float64
	Edges      int
	Strong     bool
}

// Summarize computes assignment statistics, including strong connectivity
// of the induced digraph.
func (a *Assignment) Summarize() Stats {
	g := a.InducedDigraph()
	var totalSpread float64
	for u := range a.Sectors {
		totalSpread += a.SpreadAt(u)
	}
	mean := 0.0
	if a.N() > 0 {
		mean = totalSpread / float64(a.N())
	}
	return Stats{
		N:          a.N(),
		MaxAnt:     a.MaxAntennas(),
		MaxSpread:  a.MaxSpread(),
		MaxRadius:  a.MaxRadius(),
		MeanSpread: mean,
		Edges:      g.NumEdges(),
		Strong:     graph.StronglyConnected(g),
	}
}

// String renders the stats.
func (s Stats) String() string {
	return fmt.Sprintf("n=%d antennas<=%d spread<=%.4f radius<=%.4f edges=%d strong=%v",
		s.N, s.MaxAnt, s.MaxSpread, s.MaxRadius, s.Edges, s.Strong)
}

// ShrinkRadii rescales every sector radius to the smallest value that
// still covers the targets it currently reaches, i.e. sets each antenna's
// radius to the distance of the farthest sensor it actually covers. This
// is the energy-minimizing post-pass: the induced digraph is unchanged.
func (a *Assignment) ShrinkRadii() {
	n := a.N()
	if n == 0 {
		return
	}
	idx := spatial.NewGrid(a.Pts, 0)
	var buf []int
	for u := 0; u < n; u++ {
		for si := range a.Sectors[u] {
			s := &a.Sectors[u][si]
			buf = idx.Within(a.Pts[u], s.Radius, buf[:0])
			far := 0.0
			for _, v := range buf {
				if v == u {
					continue
				}
				if s.Contains(a.Pts[u], a.Pts[v]) {
					if d := a.Pts[u].Dist(a.Pts[v]); d > far {
						far = d
					}
				}
			}
			s.Radius = far
		}
	}
}

// TotalSectorArea returns the summed area of all sectors: the standard
// proxy for aggregate transmission energy.
func (a *Assignment) TotalSectorArea() float64 {
	var sum float64
	for _, secs := range a.Sectors {
		for _, s := range secs {
			sum += s.Area()
		}
	}
	return sum
}

// Validate checks structural sanity: every sector radius is finite and
// non-negative, spreads are in [0, 2π]. Returns nil when healthy.
func (a *Assignment) Validate() error {
	for u, secs := range a.Sectors {
		for _, s := range secs {
			if s.Radius < 0 || math.IsNaN(s.Radius) || math.IsInf(s.Radius, 0) {
				return fmt.Errorf("antenna: sensor %d has invalid radius %v", u, s.Radius)
			}
			if s.Spread < 0 || s.Spread > geom.TwoPi+geom.AngleEps {
				return fmt.Errorf("antenna: sensor %d has invalid spread %v", u, s.Spread)
			}
			if math.IsNaN(s.Start) {
				return fmt.Errorf("antenna: sensor %d has NaN start", u)
			}
		}
	}
	return nil
}
