// Package delaunay computes Delaunay triangulations with an incremental
// Bowyer–Watson algorithm over an explicit triangle-adjacency mesh. Its
// role in this repository is the classical one: the Delaunay triangulation
// contains the Euclidean MST, so Kruskal over the O(n) Delaunay edges
// replaces the O(n²) candidate set and the triangulation doubles as a
// planar communication overlay for the topology-control experiments.
//
// The construction is expected O(n log n): points are inserted in a
// biased-randomized order (shuffled rounds, Morton-sorted within each
// round for locality), each insertion locates its triangle by
// jump-and-walk from the previously created triangle, and the Bowyer–
// Watson cavity is discovered by breadth-first search over triangle
// neighbor links instead of a scan of every triangle. All mesh state
// lives in flat index slices reused across insertions, so the hot path
// is allocation-free.
package delaunay

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/spatial"
)

// Triangulation is the result: triangles as index triples over the input
// points, plus the unique undirected edge set.
type Triangulation struct {
	Pts       []geom.Point
	Triangles [][3]int
	edges     [][2]int // sorted lexicographically, deduplicated, built once
}

// Edges returns the undirected Delaunay edges (u < v), sorted
// lexicographically for determinism. The slice is cached at Build time;
// callers must not mutate it (use EdgesInto for a private copy).
func (t *Triangulation) Edges() [][2]int { return t.edges }

// EdgesInto appends the undirected Delaunay edges (u < v, sorted
// lexicographically) to dst and returns it. It performs no allocation
// when dst has sufficient capacity.
func (t *Triangulation) EdgesInto(dst [][2]int) [][2]int {
	return append(dst, t.edges...)
}

// NumEdges returns the number of undirected Delaunay edges.
func (t *Triangulation) NumEdges() int { return len(t.edges) }

// NumTriangles returns the triangle count.
func (t *Triangulation) NumTriangles() int { return len(t.Triangles) }

// circumcircleContains reports whether q lies strictly inside the
// circumcircle of triangle (a, b, c) given in CCW order. The sign is
// exact (geom.InCircle: adaptive fast path, expansion fallback), so
// cocircular ties answer false deterministically regardless of
// coordinate magnitude — no tolerance band to fall off of.
func circumcircleContains(a, b, c, q geom.Point) bool {
	return geom.InCircle(a, b, c, q) > 0
}

// mesh is the mutable triangle-adjacency structure used during
// construction. Triangles are slots in flat arrays; tv holds the three
// CCW vertices of slot t at [3t:3t+3], and tn the neighbor slot across
// edge (tv[3t+i], tv[3t+(i+1)%3]) or -1 on the outer boundary.
type mesh struct {
	all  []geom.Point // input points followed by the 3 super-triangle vertices
	tv   []int32
	tn   []int32
	dead []bool

	hint int32 // alive triangle where the next walk starts
}

// bedge is one directed edge (a→b) of the cavity boundary, with the
// surviving triangle on its far side (-1 on the mesh boundary).
type bedge struct {
	a, b  int32
	outer int32
}

// growSlots appends k dead slots to the mesh arrays and returns the
// first new slot index. Slots are never freed: a fan reuses its cavity's
// slots plus two fresh ones, so the round schedule can pre-grow a whole
// wave's fresh slots and the arrays never reallocate while commits are in
// flight.
func (m *mesh) growSlots(k int) int32 {
	base := int32(len(m.dead))
	for i := 0; i < k; i++ {
		m.tv = append(m.tv, 0, 0, 0)
		m.tn = append(m.tn, -1, -1, -1)
		m.dead = append(m.dead, true)
	}
	return base
}

func (m *mesh) incircle(t int32, p geom.Point) bool {
	base := 3 * int(t)
	return circumcircleContains(m.all[m.tv[base]], m.all[m.tv[base+1]], m.all[m.tv[base+2]], p)
}

// locateFrom walks from triangle t towards p, crossing at each step the
// edge p lies strictly to the right of (the most violated one, which keeps
// the walk from cycling on degenerate inputs). It returns a triangle whose
// closed interior contains p, or -1 when even the fallback scan fails. It
// reads the mesh but never mutates it, so concurrent walks over a frozen
// mesh are safe.
func (m *mesh) locateFrom(p geom.Point, t int32) int32 {
	if t < 0 || int(t) >= len(m.dead) || m.dead[t] {
		t = m.anyAlive()
		if t < 0 {
			return -1
		}
	}
	maxSteps := 2*len(m.dead) + 64
	for step := 0; step < maxSteps; step++ {
		base := 3 * int(t)
		next := int32(-1)
		worst := 0.0
		for i := 0; i < 3; i++ {
			a := m.all[m.tv[base+i]]
			b := m.all[m.tv[base+(i+1)%3]]
			cross := (b.X-a.X)*(p.Y-a.Y) - (b.Y-a.Y)*(p.X-a.X)
			if cross < worst {
				if nb := m.tn[base+i]; nb >= 0 {
					worst = cross
					next = nb
				}
			}
		}
		if next < 0 {
			return t
		}
		t = next
	}
	return m.locateScan(p)
}

// locateScan is the rare fallback when the walk exceeds its step budget:
// scan every alive triangle for (closed) containment.
func (m *mesh) locateScan(p geom.Point) int32 {
	for t := int32(0); int(t) < len(m.dead); t++ {
		if m.dead[t] {
			continue
		}
		base := 3 * int(t)
		inside := true
		for i := 0; i < 3; i++ {
			a := m.all[m.tv[base+i]]
			b := m.all[m.tv[base+(i+1)%3]]
			if (b.X-a.X)*(p.Y-a.Y)-(b.Y-a.Y)*(p.X-a.X) < -geom.Eps {
				inside = false
				break
			}
		}
		if inside {
			return t
		}
	}
	return -1
}

func (m *mesh) anyAlive() int32 {
	for t := int32(0); int(t) < len(m.dead); t++ {
		if !m.dead[t] {
			return t
		}
	}
	return -1
}

// insertSerial inserts order one point at a time, each walk starting at
// the previous fan: evaluate the cavity against the current mesh, then
// commit the fan into the cavity's own slots plus two fresh ones.
// Degenerate points (duplicates, exact circumcircle ties, cavities that
// are not a star-shaped disk) leave the mesh untouched; Build patches
// their connectivity afterwards.
func (m *mesh) insertSerial(order []int32, sc *workerScratch) {
	for _, pi := range order {
		sc.cav, sc.bnd = sc.cav[:0], sc.bnd[:0]
		res := m.evaluate(pi, m.hint, sc)
		if res.action != aCommit {
			continue
		}
		fresh := m.growSlots(2)
		m.commitCavityAt(pi, res.cavity, res.boundary, fresh)
		m.hint = fresh + 1 // the fan's last triangle
	}
}

// cavityIsDisk checks that a cavity is a topological disk: one simple
// boundary cycle (unique edge starts) with the Euler count |∂| = |bad|+2.
func cavityIsDisk(cavity []int32, boundary []bedge) bool {
	if len(boundary) < 3 || len(boundary) != len(cavity)+2 {
		return false
	}
	k := len(boundary)
	if k <= 40 {
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if boundary[i].a == boundary[j].a {
					return false
				}
			}
		}
		return true
	}
	seen := make(map[int32]struct{}, k)
	for _, e := range boundary {
		if _, dup := seen[e.a]; dup {
			return false
		}
		seen[e.a] = struct{}{}
	}
	return true
}

// mortonD interleaves two 16-bit cell coordinates into their Z-order
// index: a branch-free spatial sort key for insertion locality.
func mortonD(x, y uint32) uint64 {
	return uint64(part1by1(x)) | uint64(part1by1(y))<<1
}

func part1by1(v uint32) uint32 {
	v &= 0x0000ffff
	v = (v | v<<8) & 0x00ff00ff
	v = (v | v<<4) & 0x0f0f0f0f
	v = (v | v<<2) & 0x33333333
	v = (v | v<<1) & 0x55555555
	return v
}

// insertionOrder returns a biased-randomized insertion order (BRIO):
// a fixed-seed shuffle split into geometrically growing rounds, each round
// sorted along a Morton curve. Randomization keeps the expected cavity
// sizes constant; the in-round spatial sort keeps jump-and-walk short.
// roundEnds holds the exclusive end position of each round in processing
// order (ascending); the parallel build batches within rounds because a
// round is a uniform sample at the mesh's current density, which keeps
// concurrent cavities mostly disjoint.
func insertionOrder(pts []geom.Point, min, max geom.Point, workers int) (order []int32, roundEnds []int) {
	n := len(pts)
	order = make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	rng := rand.New(rand.NewSource(0x9E3779B9))
	rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })

	w := max.X - min.X
	h := max.Y - min.Y
	if w <= 0 {
		w = 1
	}
	if h <= 0 {
		h = 1
	}
	keys := make([]uint64, n)
	const side = 1 << 16
	par.For(workers, n, 4096, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p := pts[i]
			x := uint32((p.X - min.X) / w * (side - 1))
			y := uint32((p.Y - min.Y) / h * (side - 1))
			keys[i] = mortonD(x, y)
		}
	})
	bounds := []int{n}
	for m := n / 2; m > 16; m /= 2 {
		bounds = append(bounds, m)
	}
	bounds = append(bounds, 0)
	// Sort each round by packed (morton key, index): a plain uint64 sort
	// beats a comparison callback and stays deterministic. Rounds are
	// disjoint segments of order, so they sort concurrently.
	packed := make([]uint64, n)
	par.For(workers, len(bounds)-1, 1, func(rlo, rhi int) {
		for i := rlo; i < rhi; i++ {
			seg := order[bounds[i+1]:bounds[i]]
			pk := packed[bounds[i+1]:bounds[i]]
			for j, v := range seg {
				pk[j] = keys[v]<<32 | uint64(uint32(v))
			}
			slices.Sort(pk)
			for j, k := range pk {
				seg[j] = int32(uint32(k))
			}
		}
	})
	for i := len(bounds) - 2; i >= 0; i-- {
		roundEnds = append(roundEnds, bounds[i])
	}
	return order, roundEnds
}

// Build triangulates the points. Inputs with fewer than 3 points, or all
// collinear, yield a triangulation with no triangles but with the chain
// edges (for collinear inputs the MST-relevant edges are the consecutive
// pairs, which Build synthesizes so Kruskal stays correct). Above a size
// cutoff Build inserts concurrently with one worker per CPU; the output
// is pinned byte-identical to the serial build (see BuildWorkers).
func Build(pts []geom.Point) (*Triangulation, error) {
	return BuildWorkers(pts, runtime.GOMAXPROCS(0))
}

// BuildWorkers is Build with an explicit concurrency level. workers <= 1
// (or inputs below parallelCutoff) runs the serial schedule, one point at
// a time; workers > 1 runs batched BRIO rounds under deterministic
// reservations (see parallel.go). Both schedules insert through the same
// evaluate and commitCavityAt. Each schedule's output depends only on the
// point set, never on timing: triangles are harvested in canonical order
// and the edge set is canonically sorted, so any workers >= 2 yields
// identical bytes, as do repeated runs at any fixed workers. For points
// in general position the two schedules also agree with each other;
// under exact cocircular ties the Delaunay triangulation is not unique
// and the two insertion orders may legally pick different diagonals
// (pinned by TestBuildGolden and TestAdversarialParallelBuildDeterminism).
func BuildWorkers(pts []geom.Point, workers int) (*Triangulation, error) {
	n := len(pts)
	t := &Triangulation{Pts: pts}
	if n < 2 {
		return t, nil
	}
	if n == 2 {
		t.edges = [][2]int{{0, 1}}
		return t, nil
	}
	// Super-triangle comfortably containing everything.
	min, max := geom.BoundingBox(pts)
	span := math.Max(max.X-min.X, max.Y-min.Y)
	if span == 0 {
		span = 1
	}
	mid := geom.Midpoint(min, max)
	s0 := geom.Point{X: mid.X - 20*span, Y: mid.Y - 10*span}
	s1 := geom.Point{X: mid.X + 20*span, Y: mid.Y - 10*span}
	s2 := geom.Point{X: mid.X, Y: mid.Y + 20*span}

	// The super-triangle takes slot 0 and every committed point adds two
	// slots, so a build never uses more than 2n+1 slots.
	slots := 2*n + 1
	m := &mesh{all: append(append(make([]geom.Point, 0, n+3), pts...), s0, s1, s2)}
	m.tv = make([]int32, 0, 3*slots)
	m.tn = make([]int32, 0, 3*slots)
	m.dead = make([]bool, 0, slots)
	m.hint = m.growSlots(1)
	m.dead[0] = false
	m.tv[0], m.tv[1], m.tv[2] = int32(n), int32(n+1), int32(n+2) // CCW by construction

	order, roundEnds := insertionOrder(pts, min, max, workers)
	if workers > 1 && n >= parallelCutoff {
		m.insertParallel(order, roundEnds, workers, slots)
	} else {
		m.insertSerial(order, newWorkerScratch(slots))
	}

	keys := m.harvest(t, workers)
	if len(t.Triangles) == 0 {
		// Collinear (or otherwise degenerate) input: fall back to the
		// sorted chain so downstream MST construction remains exact.
		t.synthesizeChain()
		return t, nil
	}
	// Points skipped as degenerate must still appear in the edge set for
	// spanning purposes: hook each isolated point to its nearest neighbor.
	keys = t.attachIsolated(keys)
	t.edges = sortEdgeKeys(keys, n)
	sortTriangles(t.Triangles, workers)
	return t, nil
}

// harvest emits the triangles not touching the super-triangle, already
// rotated minimum-vertex-first, plus the packed edge keys. Every interior
// edge is shared by two alive triangles, so each edge is emitted exactly
// once: by the lower-numbered slot of the pair (or by the harvested side
// when the neighbor touches the super-triangle or the mesh boundary).
// The scan is a chunked two-pass (count, prefix-sum, fill) so it
// parallelizes without changing the slot-order output.
func (m *mesh) harvest(t *Triangulation, workers int) []uint64 {
	n := len(t.Pts)
	nn := int32(n)
	isSuper := func(tr int32) bool {
		return m.tv[3*tr] >= nn || m.tv[3*tr+1] >= nn || m.tv[3*tr+2] >= nn
	}
	nslots := len(m.dead)
	const chunk = 8192
	nchunks := (nslots + chunk - 1) / chunk
	triCnt := make([]int32, nchunks+1)
	keyCnt := make([]int32, nchunks+1)
	par.For(workers, nchunks, 1, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			end := int32(min((c+1)*chunk, nslots))
			var tc, kc int32
			for tr := int32(c * chunk); tr < end; tr++ {
				if m.dead[tr] || isSuper(tr) {
					continue
				}
				tc++
				base := 3 * int(tr)
				for i := 0; i < 3; i++ {
					if nb := m.tn[base+i]; nb < 0 || nb > tr || isSuper(nb) {
						kc++
					}
				}
			}
			triCnt[c+1], keyCnt[c+1] = tc, kc
		}
	})
	for c := 0; c < nchunks; c++ {
		triCnt[c+1] += triCnt[c]
		keyCnt[c+1] += keyCnt[c]
	}
	t.Triangles = make([][3]int, triCnt[nchunks])
	keys := make([]uint64, keyCnt[nchunks])
	par.For(workers, nchunks, 1, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			end := int32(min((c+1)*chunk, nslots))
			ti, ki := triCnt[c], keyCnt[c]
			for tr := int32(c * chunk); tr < end; tr++ {
				if m.dead[tr] || isSuper(tr) {
					continue
				}
				base := 3 * int(tr)
				a, b, cc := int(m.tv[base]), int(m.tv[base+1]), int(m.tv[base+2])
				switch {
				case b < a && b < cc:
					a, b, cc = b, cc, a
				case cc < a && cc < b:
					a, b, cc = cc, a, b
				}
				t.Triangles[ti] = [3]int{a, b, cc}
				ti++
				for i := 0; i < 3; i++ {
					if nb := m.tn[base+i]; nb < 0 || nb > tr || isSuper(nb) {
						keys[ki] = packEdge(m.tv[base+i], m.tv[base+(i+1)%3])
						ki++
					}
				}
			}
		}
	})
	return keys
}

// sortTriangles orders the min-vertex-first triangles lexicographically.
// Together with the rotation done at harvest, the output depends only on
// which triangles exist, not on mesh slot numbering — the property that
// lets the parallel and serial builds emit identical bytes.
func sortTriangles(tris [][3]int, workers int) {
	if len(tris) == 0 {
		return
	}
	// Vertex indices below 2^21 pack into one uint64 sort key; larger
	// inputs fall back to a comparison sort.
	maxV := 0
	for _, tr := range tris {
		if tr[1] > maxV {
			maxV = tr[1]
		}
		if tr[2] > maxV {
			maxV = tr[2]
		}
	}
	if maxV < 1<<21 {
		keys := make([]uint64, len(tris))
		par.For(workers, len(tris), 4096, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				tr := tris[i]
				keys[i] = uint64(tr[0])<<42 | uint64(tr[1])<<21 | uint64(tr[2])
			}
		})
		parSortUint64(keys, workers)
		const m21 = 1<<21 - 1
		par.For(workers, len(tris), 4096, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				k := keys[i]
				tris[i] = [3]int{int(k >> 42), int(k >> 21 & m21), int(k & m21)}
			}
		})
		return
	}
	sort.Slice(tris, func(i, j int) bool {
		a, b := tris[i], tris[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})
}

// parSortUint64 sorts keys ascending with a chunked parallel merge sort.
// The sorted output is unique for a given multiset, so the chunking can
// never change the result.
func parSortUint64(keys []uint64, workers int) {
	n := len(keys)
	if par.Workers(workers) <= 1 || n < 1<<15 {
		slices.Sort(keys)
		return
	}
	chunks := 1
	for chunks < par.Workers(workers) && chunks < 16 {
		chunks <<= 1
	}
	bounds := make([]int, chunks+1)
	for i := 0; i <= chunks; i++ {
		bounds[i] = i * n / chunks
	}
	par.For(workers, chunks, 1, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			slices.Sort(keys[bounds[c]:bounds[c+1]])
		}
	})
	scratch := make([]uint64, n)
	src, dst := keys, scratch
	for width := 1; width < chunks; width <<= 1 {
		w2 := 2 * width
		par.For(workers, chunks/w2, 1, func(plo, phi int) {
			for p := plo; p < phi; p++ {
				lo, mid, hi := bounds[w2*p], bounds[w2*p+width], bounds[w2*(p+1)]
				mergeUint64(dst[lo:hi], src[lo:mid], src[mid:hi])
			}
		})
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

func mergeUint64(dst, a, b []uint64) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
		k++
	}
	copy(dst[k:], a[i:])
	copy(dst[k+len(a)-i:], b[j:])
}

// sortEdgeKeys orders packed (u<<32 | v) edge keys lexicographically with
// a counting sort over u followed by tiny per-bucket insertion sorts over
// v, deduplicating in place — O(E) overall, far cheaper than a general
// sort on the ~3n Delaunay edges.
func sortEdgeKeys(keys []uint64, n int) [][2]int {
	cnt := make([]int32, n+1)
	for _, k := range keys {
		cnt[int(k>>32)+1]++
	}
	for u := 0; u < n; u++ {
		cnt[u+1] += cnt[u]
	}
	byU := make([]int32, len(keys))
	pos := make([]int32, n)
	for _, k := range keys {
		u := int(k >> 32)
		byU[cnt[u]+pos[u]] = int32(uint32(k))
		pos[u]++
	}
	edges := make([][2]int, 0, len(keys))
	for u := 0; u < n; u++ {
		bucket := byU[cnt[u]:cnt[u+1]]
		graph.InsertionSort(bucket)
		for i, v := range bucket {
			if i > 0 && v == bucket[i-1] {
				continue // duplicate (e.g. two isolated points attached to each other)
			}
			edges = append(edges, [2]int{u, int(v)})
		}
	}
	return edges
}

func packEdge(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(uint32(v))
}

// synthesizeChain connects collinear points in coordinate order.
func (t *Triangulation) synthesizeChain() {
	idx := make([]int, len(t.Pts))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		pa, pb := t.Pts[idx[a]], t.Pts[idx[b]]
		if pa.X != pb.X {
			return pa.X < pb.X
		}
		return pa.Y < pb.Y
	})
	keys := make([]uint64, 0, len(idx))
	for i := 1; i < len(idx); i++ {
		keys = append(keys, packEdge(int32(idx[i-1]), int32(idx[i])))
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	t.edges = make([][2]int, len(keys))
	for i, k := range keys {
		t.edges[i] = [2]int{int(k >> 32), int(k & 0xffffffff)}
	}
}

// attachIsolated links any vertex absent from the harvested edge keys to
// its nearest neighbor, preserving connectivity of the edge graph.
func (t *Triangulation) attachIsolated(keys []uint64) []uint64 {
	n := len(t.Pts)
	seen := make([]bool, n)
	for _, k := range keys {
		seen[k>>32] = true
		seen[uint32(k)] = true
	}
	var grid *spatial.Grid
	for v := 0; v < n; v++ {
		if seen[v] {
			continue
		}
		if grid == nil {
			grid = spatial.NewGrid(t.Pts, 0)
		}
		if best := grid.Nearest(t.Pts[v], v); best >= 0 {
			keys = append(keys, packEdge(int32(v), int32(best)))
		}
	}
	return keys
}

// Validate checks the Delaunay empty-circumcircle property on every
// triangle against every point (O(n·t); test-sized inputs).
func (t *Triangulation) Validate() error {
	for _, tr := range t.Triangles {
		a, b, c := t.Pts[tr[0]], t.Pts[tr[1]], t.Pts[tr[2]]
		for q := range t.Pts {
			if q == tr[0] || q == tr[1] || q == tr[2] {
				continue
			}
			if circumcircleContains(a, b, c, t.Pts[q]) {
				return fmt.Errorf("delaunay: point %d inside circumcircle of %v", q, tr)
			}
		}
	}
	return nil
}
