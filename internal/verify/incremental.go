package verify

import (
	"math"
	"sort"

	"repro/internal/antenna"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/spatial"
)

// Incremental is the maintained-state verifier behind live-instance
// repair: instead of rebuilding the induced digraph and re-auditing
// connectivity from scratch at every revision (O(n) and the dominant
// per-revision cost), it keeps the digraph, the per-sensor budget stats,
// and — for symmetric budgets — a dynamic-connectivity structure
// (graph.DynConn) over the mutual edges, and updates all of them from a
// sector diff. A revision then costs O(dirty · local density) plus two
// linear stat scans, not a digraph rebuild.
//
// Identity is stable: each sensor gets an internal id at first sight and
// keeps it while it lives, so index compaction under removals never
// perturbs maintained adjacency. A moved sensor is a removal plus an
// arrival (solution.PlanOps semantics) and changes id — exactly the
// semantics under which "clean sensors kept position and sectors" holds.
//
// The caller's contract for Apply, policed by the cross-check suite
// (incremental_test.go) and the instance tier's periodic full audit:
// sensors outside the dirty set kept their position and their sector
// values bit-for-bit. Violations void the maintained verdict — which the
// audit escape hatch (instance.Config.VerifyAuditEvery) exists to catch.
//
// Connectivity verdict costs per revision:
//
//   - Symmetric budgets (cover, bats): O(dirty neighborhood) via DynConn.
//   - Plain strong budgets (tour k=1): one Tarjan pass over the
//     maintained digraph — linear, but with the rebuild and the EMST
//     already amortized away.
//   - StrongC > 1 (tour k≥2): brute-force c-connectivity, same as Check;
//     symmetric fast path applies first, so the brute audit only runs on
//     budgets that demand it.
type Incremental struct {
	b Budgets // static claims; KnownLMax arrives per Apply

	pts     []geom.Point
	sectors [][]geom.Sector

	idOf  []int32 // external index -> id
	extOf []int32 // id -> external index, -1 dead
	free  []int32 // recycled ids

	out, in [][]int32 // per-id adjacency over ids (unordered)
	radius  []float64 // per-id max sector radius
	spread  []float64 // per-id total spread
	ants    []int32   // per-id antenna count

	edges int
	conn  *graph.DynConn // mutual-edge connectivity; nil unless b.Symmetric

	// broken latches a contract violation or a mid-update failure; every
	// later Apply answers an error report until the structure is rebuilt.
	broken bool
}

// NewIncremental builds the maintained state from a verified assignment.
// Budgets.KnownLMax is ignored here; each Apply supplies the revision's
// bottleneck.
func NewIncremental(asg *antenna.Assignment, b Budgets) *Incremental {
	n := asg.N()
	v := &Incremental{
		b:       b,
		pts:     asg.Pts,
		sectors: asg.Sectors,
		idOf:    make([]int32, n),
		extOf:   make([]int32, n),
		out:     make([][]int32, n),
		in:      make([][]int32, n),
		radius:  make([]float64, n),
		spread:  make([]float64, n),
		ants:    make([]int32, n),
	}
	g := asg.InducedDigraph()
	v.edges = g.NumEdges()
	for i := 0; i < n; i++ {
		v.idOf[i] = int32(i)
		v.extOf[i] = int32(i)
		if deg := len(g.Adj[i]); deg > 0 {
			v.out[i] = make([]int32, deg)
			for j, w := range g.Adj[i] {
				v.out[i][j] = int32(w)
			}
		}
		v.radius[i] = geom.MaxRadius(asg.Sectors[i])
		v.spread[i] = geom.SectorUnionSpread(asg.Sectors[i])
		v.ants[i] = int32(len(asg.Sectors[i]))
	}
	for u := 0; u < n; u++ {
		for _, w := range v.out[u] {
			v.in[w] = append(v.in[w], int32(u))
		}
	}
	if b.Symmetric {
		v.conn = graph.NewDynConn(n)
		for i := 0; i < n; i++ {
			v.conn.AddNode(i)
		}
		for u := 0; u < n; u++ {
			for _, w := range g.Adj[u] {
				if u < w && g.HasEdge(w, u) {
					v.conn.AddEdge(u, w)
				}
			}
		}
	}
	return v
}

// N reports the number of live sensors.
func (v *Incremental) N() int { return len(v.idOf) }

// hasOut reports whether the maintained digraph holds id edge u→w.
func (v *Incremental) hasOut(u, w int32) bool {
	for _, x := range v.out[u] {
		if x == w {
			return true
		}
	}
	return false
}

// addEdge inserts id edge u→w, updating mutual connectivity.
func (v *Incremental) addEdge(u, w int32) {
	v.out[u] = append(v.out[u], w)
	v.in[w] = append(v.in[w], u)
	v.edges++
	if v.conn != nil && v.hasOut(w, u) {
		v.conn.AddEdge(int(u), int(w))
	}
}

// delEdge removes id edge u→w, updating mutual connectivity.
func (v *Incremental) delEdge(u, w int32) {
	removeID(v.out, u, w)
	removeID(v.in, w, u)
	v.edges--
	if v.conn != nil && v.hasOut(w, u) {
		v.conn.RemoveEdge(int(u), int(w))
	}
}

func removeID(lists [][]int32, from, val int32) {
	l := lists[from]
	for i, x := range l {
		if x == val {
			l[i] = l[len(l)-1]
			lists[from] = l[:len(l)-1]
			return
		}
	}
}

// Apply advances the maintained state by one revision and audits it. asg
// is the new assignment (clean sensors alias their previous sector
// slices), grid indexes asg.Pts (nil builds one), old2new maps previous
// external indices to new ones (-1 = removed, solution.PlanOps
// semantics), dirty lists — sorted or not — every new index whose
// sectors may differ from the previous revision (all fresh indices are
// implicitly dirty even if omitted), and knownLMax is the revision's
// EMST bottleneck, vouched for by the caller exactly as
// Budgets.KnownLMax documents (the churn-equivalence harness polices the
// repair path's value by cross-checking repaired revisions against
// from-scratch solves whose verification recomputes l_max).
//
// The returned report has the same meaning as Check's. A contract
// violation (mismatched lengths, non-positive knownLMax, invalid dirty
// sectors) latches the structure broken: the report carries an error and
// every later Apply does too, until the caller rebuilds with
// NewIncremental. A merely failed audit (lost connectivity, budget
// exceeded) does not break the structure; the state advances and keeps
// tracking the new geometry.
func (v *Incremental) Apply(asg *antenna.Assignment, grid *spatial.Grid, old2new []int, dirty []int, knownLMax float64) *Report {
	rep := &Report{}
	if v.broken {
		rep.errorf("incremental verifier is broken by an earlier contract violation; rebuild required")
		return rep
	}
	nOld, nNew := len(v.idOf), asg.N()
	if len(old2new) != nOld {
		v.broken = true
		rep.errorf("incremental verify: old2new has %d entries for %d sensors", len(old2new), nOld)
		return rep
	}
	if nNew < 2 {
		v.broken = true
		rep.errorf("incremental verify: %d sensors is below the maintained minimum", nNew)
		return rep
	}
	if knownLMax <= 0 || math.IsNaN(knownLMax) || math.IsInf(knownLMax, 0) {
		v.broken = true
		rep.errorf("incremental verify: invalid knownLMax %v", knownLMax)
		return rep
	}
	if grid == nil || grid.Len() != nNew {
		grid = spatial.NewGrid(asg.Pts, 0)
	}

	// Map surviving ids to new indices; collect removals.
	newIdOf := make([]int32, nNew)
	for i := range newIdOf {
		newIdOf[i] = -1
	}
	var removed []int32
	for o, nIdx := range old2new {
		if nIdx >= 0 {
			if nIdx >= nNew {
				v.broken = true
				rep.errorf("incremental verify: old2new maps %d beyond %d sensors", nIdx, nNew)
				return rep
			}
			newIdOf[nIdx] = v.idOf[o]
		} else {
			removed = append(removed, v.idOf[o])
		}
	}

	// The definitive dirty set: the caller's, plus every unmapped (fresh)
	// index, deduped.
	isDirty := make([]bool, nNew)
	for _, dn := range dirty {
		if dn < 0 || dn >= nNew {
			v.broken = true
			rep.errorf("incremental verify: dirty index %d out of range", dn)
			return rep
		}
		isDirty[dn] = true
	}
	var work []int // new indices to re-scan
	var freshIdx []int
	for i := 0; i < nNew; i++ {
		if newIdOf[i] < 0 {
			freshIdx = append(freshIdx, i)
			isDirty[i] = true
			work = append(work, i)
		} else if isDirty[i] {
			work = append(work, i)
		}
	}

	// Validate the dirty sectors before mutating anything (the clean
	// sectors were validated when they first went dirty or at build).
	for _, dn := range work {
		for _, s := range asg.Sectors[dn] {
			if s.Radius < 0 || math.IsNaN(s.Radius) || math.IsInf(s.Radius, 0) ||
				s.Spread < 0 || s.Spread > geom.TwoPi+geom.AngleEps || math.IsNaN(s.Start) {
				v.broken = true
				rep.errorf("incremental verify: sensor %d has an invalid sector", dn)
				return rep
			}
		}
	}

	// --- Mutation begins: any inconsistency past this point is repaired
	// only by a rebuild, so latch broken on the way in and clear it on
	// the way out.
	v.broken = true

	// Drop removed sensors: all incident edges, then the node.
	var scratch []int32
	for _, r := range removed {
		scratch = append(scratch[:0], v.out[r]...)
		for _, w := range scratch {
			v.delEdge(r, w)
		}
		scratch = append(scratch[:0], v.in[r]...)
		for _, u := range scratch {
			v.delEdge(u, r)
		}
		if v.conn != nil {
			v.conn.RemoveNode(int(r))
		}
		v.extOf[r] = -1
		v.radius[r], v.spread[r], v.ants[r] = 0, 0, 0
		v.free = append(v.free, r)
	}

	// Clear the out-edges of surviving dirty sensors (their sectors
	// changed; in-edges depend on the *other* side's sectors and this
	// side's unchanged position, so they stay).
	for _, dn := range work {
		id := newIdOf[dn]
		if id < 0 {
			continue // fresh; allocated below
		}
		scratch = append(scratch[:0], v.out[id]...)
		for _, w := range scratch {
			v.delEdge(id, w)
		}
	}

	// Allocate ids for arrivals.
	for _, dn := range freshIdx {
		var id int32
		if len(v.free) > 0 {
			id = v.free[len(v.free)-1]
			v.free = v.free[:len(v.free)-1]
		} else {
			id = int32(len(v.extOf))
			v.extOf = append(v.extOf, -1)
			v.out = append(v.out, nil)
			v.in = append(v.in, nil)
			v.radius = append(v.radius, 0)
			v.spread = append(v.spread, 0)
			v.ants = append(v.ants, 0)
			if v.conn != nil {
				v.conn.Grow(len(v.extOf))
			}
		}
		newIdOf[dn] = id
		if v.conn != nil {
			v.conn.AddNode(int(id))
		}
	}

	// Adopt the new geometry and refresh the dirty stats.
	v.pts = asg.Pts
	v.sectors = asg.Sectors
	v.idOf = newIdOf
	for i, id := range newIdOf {
		v.extOf[id] = int32(i)
	}
	for _, dn := range work {
		id := newIdOf[dn]
		v.radius[id] = geom.MaxRadius(asg.Sectors[dn])
		v.spread[id] = geom.SectorUnionSpread(asg.Sectors[dn])
		v.ants[id] = int32(len(asg.Sectors[dn]))
	}

	// Global max radius bounds the reverse-discovery query below.
	var maxRadius float64
	for _, id := range newIdOf {
		if v.radius[id] > maxRadius {
			maxRadius = v.radius[id]
		}
	}

	// Re-scan out-edges of every dirty sensor (its own sectors drive
	// them), mirroring antenna's digraph scan.
	var buf []int
	for _, dn := range work {
		id := newIdOf[dn]
		secs := asg.Sectors[dn]
		if len(secs) == 0 {
			continue
		}
		pu := asg.Pts[dn]
		buf = grid.Within(pu, geom.MaxRadius(secs), buf[:0])
		for _, w := range buf {
			if w == dn {
				continue
			}
			for si := range secs {
				if secs[si].Contains(pu, asg.Pts[w]) {
					v.addEdge(id, newIdOf[w])
					break
				}
			}
		}
	}

	// Reverse discovery: clean sensors may cover an arrival. Any coverer
	// sits within the global max radius; dirty sensors were handled by
	// their own re-scan above.
	for _, dn := range freshIdx {
		pq := asg.Pts[dn]
		buf = grid.Within(pq, maxRadius, buf[:0])
		for _, u := range buf {
			if u == dn || isDirty[u] {
				continue
			}
			secs := asg.Sectors[u]
			for si := range secs {
				if secs[si].Contains(asg.Pts[u], pq) {
					v.addEdge(newIdOf[u], newIdOf[dn])
					break
				}
			}
		}
	}

	v.broken = false
	// --- Mutation done; audit the maintained state.
	return v.report(knownLMax)
}

// report audits the maintained state against the budgets through the
// verdict Check renders (judge).
func (v *Incremental) report(knownLMax float64) *Report {
	rep := &Report{Edges: v.edges, LMax: knownLMax}
	for _, id := range v.idOf {
		if int(v.ants[id]) > rep.MaxAntennas {
			rep.MaxAntennas = int(v.ants[id])
		}
		if v.spread[id] > rep.MaxSpread {
			rep.MaxSpread = v.spread[id]
		}
		if v.radius[id] > rep.MaxRadius {
			rep.MaxRadius = v.radius[id]
		}
	}
	rep.judge(v.b, len(v.idOf), v.b.Symmetric && v.conn.Connected(), v.Digraph)
	return rep
}

// Digraph renders the maintained adjacency as a fresh external-index
// digraph with sorted adjacency lists — the representation Check's
// builder produces, for cross-checking and for the SCC passes.
func (v *Incremental) Digraph() *graph.Digraph {
	n := len(v.idOf)
	g := graph.NewDigraph(n)
	for i, id := range v.idOf {
		l := v.out[id]
		if len(l) == 0 {
			continue
		}
		adj := make([]int, len(l))
		for j, w := range l {
			adj[j] = int(v.extOf[w])
		}
		sort.Ints(adj)
		g.Adj[i] = adj
	}
	return g
}
