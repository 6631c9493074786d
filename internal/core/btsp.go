package core

import (
	"context"
	"math"
	"sort"

	"repro/internal/antenna"
	"repro/internal/geom"
	"repro/internal/mst"
	"repro/internal/spatial"
)

// CubeTour returns a Hamiltonian cycle in the cube of the spanning tree:
// consecutive cycle vertices are within tree distance 3, hence within
// Euclidean distance 3·l_max. This is Sekanina's classical construction
// and our *guaranteed* substitute for the Parker–Rardin bottleneck tour
// (DESIGN.md §6). It reuses the linear-time CubePath rooted at a leaf:
// the emitted path ends at a child of the root, so the closing hop of the
// cycle is a single tree edge and every other hop spans ≤ 3 tree edges.
func CubeTour(t *mst.Tree) []int {
	n := t.N()
	if n == 0 {
		return nil
	}
	if n == 1 {
		return []int{0}
	}
	rooted, err := mst.RootAtLeaf(t)
	if err != nil {
		return nil
	}
	return CubePath(rooted)
}

// ShortcutTour returns the preorder of a DFS over the tree (the classical
// doubled-MST shortcut). No bottleneck guarantee, but with 2-opt repair it
// empirically lands at ≤ 2·l_max on random instances.
func ShortcutTour(t *mst.Tree) []int {
	n := t.N()
	if n == 0 {
		return nil
	}
	seen := make([]bool, n)
	order := make([]int, 0, n)
	stack := []int{0}
	seen[0] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, v)
		for i := len(t.Adj[v]) - 1; i >= 0; i-- {
			w := t.Adj[v][i]
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return order
}

// TourBottleneck returns the length of the longest hop in the cyclic tour.
func TourBottleneck(pts []geom.Point, tour []int) float64 {
	if len(tour) < 2 {
		return 0
	}
	var best float64
	for i := range tour {
		d := pts[tour[i]].Dist(pts[tour[(i+1)%len(tour)]])
		if d > best {
			best = d
		}
	}
	return best
}

// TwoOptBottleneck improves a tour's bottleneck with 2-opt moves: while
// some move strictly shrinks the longest affected hop, apply it. maxIters
// caps the number of accepted moves. Returns the improved tour (a copy).
//
// The candidate scan is grid-backed: removing the bottleneck hop (a, b)
// of length L and the hop (c, d) in exchange for (a, c) and (b, d) can
// only shrink the bottleneck when dist(a, c) < L, so the only viable c
// are the points a spatial.Grid radius query returns around a — a
// handful, not all n. A lazy max-heap of hops tracks the bottleneck
// across moves (hop lengths never change, only adjacency does, so stale
// entries are detected by a position check), and each accepted move
// reverses the shorter of the two arcs. Together that replaces the old
// O(n) bottleneck scan × O(n) candidate scan per move with
// O(log n + |near(a, L)| + shorter-arc).
func TwoOptBottleneck(pts []geom.Point, tour []int, maxIters int) []int {
	out, _ := TwoOptBottleneckCtx(context.Background(), pts, tour, maxIters)
	return out
}

// twoOptCheckpointMask sets the cancellation granularity of the 2-opt
// repair loop: the context is polled every 64 accepted moves, cheap
// against the grid query each move already pays.
const twoOptCheckpointMask = 63

// TwoOptBottleneckCtx is TwoOptBottleneck with cancellation checkpoints
// inside the repair loop: the context is polled every few accepted moves,
// and an expired deadline abandons the optimization with ctx.Err()
// instead of burning the remaining moves to completion. This is how an
// abandoned tour solve stops consuming its core once the requester is
// gone (the engine propagates HTTP deadlines here through
// Orienter.OrientCtx).
func TwoOptBottleneckCtx(ctx context.Context, pts []geom.Point, tour []int, maxIters int) ([]int, error) {
	n := len(tour)
	out := append([]int(nil), tour...)
	if n < 4 {
		return out, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pos := make([]int, len(pts)) // pos[v] = index of vertex v in out
	for i, v := range out {
		pos[v] = i
	}
	next := func(i int) int {
		if i++; i == n {
			return 0
		}
		return i
	}
	// The heap alone carries hop lengths: a hop's length is the pairwise
	// distance of its endpoints, which never changes, so entries only go
	// stale by losing adjacency — checked against pos at pop time.
	h := hopHeap{}
	for i := 0; i < n; i++ {
		h.push(hopEntry{len: pts[out[i]].Dist(pts[out[next(i)]]), u: out[i], v: out[next(i)]})
	}
	grid := spatial.NewGrid(pts, 0)
	var buf []int
	for iter := 0; iter < maxIters; iter++ {
		if iter&twoOptCheckpointMask == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		// Pop entries until the top is a live hop: u and v adjacent in
		// the current tour (reversals flip direction but keep adjacency,
		// and lengths are pairwise distances, so they never go stale).
		var a, b, i int
		var L float64
		for {
			top, ok := h.peek()
			if !ok {
				return out, nil // cannot happen: every live hop has an entry
			}
			pu, pv := pos[top.u], pos[top.v]
			if out[next(pu)] == top.v {
				a, b, i, L = top.u, top.v, pu, top.len
				break
			}
			if out[next(pv)] == top.u {
				a, b, i, L = top.v, top.u, pv, top.len
				break
			}
			h.pop() // stale: this pair is no longer a tour hop
		}
		// Candidates c with dist(a, c) < L − eps; the grid returns them
		// in deterministic cell order.
		buf = grid.Within(pts[a], L-geom.Eps, buf[:0])
		bestJ := -1
		bestMax := L - geom.Eps
		for _, c := range buf {
			if c == a || c == b {
				continue
			}
			j := pos[c]
			d := out[next(j)]
			if d == a { // hops share vertex a: degenerate move
				continue
			}
			newMax := math.Max(pts[a].Dist(pts[c]), pts[b].Dist(pts[d]))
			if newMax < bestMax || (newMax == bestMax && bestJ >= 0 && j < bestJ) {
				bestMax, bestJ = newMax, j
			}
		}
		if bestJ < 0 {
			break // the global bottleneck admits no improving move
		}
		j := bestJ
		// Replace hops (i, i+1) and (j, j+1) with (a, out[j]) and
		// (b, out[j+1]): reverse positions i+1..j, or equivalently the
		// complementary arc j+1..i — pick the shorter.
		lo, hi := next(i), j
		arc := hi - lo
		if arc < 0 {
			arc += n
		}
		if arc+1 > n/2 {
			lo, hi = next(j), i
		}
		reverseArc(out, pos, lo, hi)
		// Exactly two hops changed; push their new entries. Interior
		// hops keep their endpoints adjacent, so their old heap entries
		// stay valid.
		p := lo - 1
		if p < 0 {
			p = n - 1
		}
		h.push(hopEntry{len: pts[out[p]].Dist(pts[out[next(p)]]), u: out[p], v: out[next(p)]})
		h.push(hopEntry{len: pts[out[hi]].Dist(pts[out[next(hi)]]), u: out[hi], v: out[next(hi)]})
	}
	return out, nil
}

// reverseArc reverses tour positions lo..hi (cyclic, inclusive),
// maintaining pos.
func reverseArc(tour, pos []int, lo, hi int) {
	n := len(tour)
	count := hi - lo
	if count < 0 {
		count += n
	}
	count++ // vertices in the arc
	for s := 0; s < count/2; s++ {
		a := lo + s
		if a >= n {
			a -= n
		}
		b := hi - s
		if b < 0 {
			b += n
		}
		tour[a], tour[b] = tour[b], tour[a]
		pos[tour[a]], pos[tour[b]] = a, b
	}
}

// hopEntry is one (length, endpoints) record in the bottleneck heap.
type hopEntry struct {
	len  float64
	u, v int
}

// hopHeap is a plain binary max-heap over hop lengths with deterministic
// tie-breaking on the endpoint indices, so the bottleneck hop the 2-opt
// attacks is independent of insertion order.
type hopHeap struct {
	a []hopEntry
}

func hopLess(x, y hopEntry) bool {
	if x.len != y.len {
		return x.len < y.len
	}
	if x.u != y.u {
		return x.u < y.u
	}
	return x.v < y.v
}

func (h *hopHeap) push(e hopEntry) {
	h.a = append(h.a, e)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !hopLess(h.a[p], h.a[i]) {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *hopHeap) peek() (hopEntry, bool) {
	if len(h.a) == 0 {
		return hopEntry{}, false
	}
	return h.a[0], true
}

func (h *hopHeap) pop() {
	last := len(h.a) - 1
	if last < 0 {
		return
	}
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(h.a) && hopLess(h.a[big], h.a[l]) {
			big = l
		}
		if r < len(h.a) && hopLess(h.a[big], h.a[r]) {
			big = r
		}
		if big == i {
			return
		}
		h.a[i], h.a[big] = h.a[big], h.a[i]
		i = big
	}
}

// ExactBottleneckTour computes a bottleneck-optimal Hamiltonian cycle for
// small n (≤ ~14) by binary-searching the bottleneck over the sorted
// pairwise distances and testing Hamiltonicity with a bitmask DP. Returns
// the tour and its bottleneck; ok is false when n is out of range.
func ExactBottleneckTour(pts []geom.Point) (tour []int, bottleneck float64, ok bool) {
	n := len(pts)
	if n == 0 || n > 14 {
		return nil, 0, false
	}
	if n == 1 {
		return []int{0}, 0, true
	}
	if n == 2 {
		return []int{0, 1}, pts[0].Dist(pts[1]), true
	}
	var dists []float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dists = append(dists, pts[i].Dist(pts[j]))
		}
	}
	sort.Float64s(dists)
	lo, hi := 0, len(dists)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if _, feasible := hamCycleWithin(pts, dists[mid]); feasible {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	t, feasible := hamCycleWithin(pts, dists[lo])
	if !feasible {
		return nil, 0, false
	}
	return t, dists[lo], true
}

// hamCycleWithin searches for a Hamiltonian cycle whose hops are all
// ≤ d (with tolerance), via DP over subsets anchored at vertex 0.
func hamCycleWithin(pts []geom.Point, d float64) ([]int, bool) {
	n := len(pts)
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
		for j := 0; j < n; j++ {
			if i != j && pts[i].Dist(pts[j]) <= d+geom.Eps {
				adj[i][j] = true
			}
		}
	}
	full := 1<<n - 1
	// dp[mask][v]: predecessor vertex +1, 0 = unreachable.
	dp := make([][]int8, full+1)
	dp[1] = make([]int8, n)
	dp[1][0] = int8(1) // start marker
	for mask := 1; mask <= full; mask++ {
		if dp[mask] == nil {
			continue
		}
		for v := 0; v < n; v++ {
			if dp[mask][v] == 0 || mask&(1<<v) == 0 {
				continue
			}
			for w := 1; w < n; w++ {
				if mask&(1<<w) != 0 || !adj[v][w] {
					continue
				}
				nm := mask | 1<<w
				if dp[nm] == nil {
					dp[nm] = make([]int8, n)
				}
				if dp[nm][w] == 0 {
					dp[nm][w] = int8(v + 1)
				}
			}
		}
	}
	if dp[full] == nil {
		return nil, false
	}
	for v := 1; v < n; v++ {
		if dp[full][v] != 0 && adj[v][0] {
			// Reconstruct.
			tour := make([]int, 0, n)
			mask, cur := full, v
			for cur != 0 {
				tour = append(tour, cur)
				prev := int(dp[mask][cur]) - 1
				mask &^= 1 << cur
				cur = prev
			}
			tour = append(tour, 0)
			// Reverse into forward order.
			for i, j := 0, len(tour)-1; i < j; i, j = i+1, j-1 {
				tour[i], tour[j] = tour[j], tour[i]
			}
			return tour, true
		}
	}
	return nil, false
}

// OrientTour aims k zero-spread antennae along a Hamiltonian cycle: each
// sensor points at its successor, and (k ≥ 2) at its predecessor too. The
// induced digraph contains the directed cycle, hence is strongly
// connected; the radius used is the tour bottleneck. This reproduces the
// φ = 0 rows of Table 1 ([14]). tree is the point set's EMST, which
// supplies the points and l_max.
func OrientTour(tree *mst.Tree, tour []int, k int, phi float64) (*antenna.Assignment, *Result) {
	pts := tree.Pts
	res := newResult("btsp-tour", k, phi)
	asg := antenna.New(pts)
	if len(pts) <= 1 {
		res.bump("trivial")
		return asg, res
	}
	res.LMax = tree.LMax()
	res.checkf(len(tour) == len(pts), "tour visits %d of %d sensors", len(tour), len(pts))
	n := len(tour)
	for i, v := range tour {
		next := tour[(i+1)%n]
		asg.AddRayTo(v, next, pts[v].Dist(pts[next]))
		res.bump("tour-forward")
		if k >= 2 {
			prev := tour[(i-1+n)%n]
			asg.AddRayTo(v, prev, pts[v].Dist(pts[prev]))
			res.bump("tour-backward")
		}
	}
	res.RadiusUsed = asg.MaxRadius()
	res.SpreadUsed = asg.MaxSpread()
	return asg, res
}

// BestTour builds the orientation tour for the φ=0 rows from the point
// set's EMST: the 2-opt repaired MST shortcut tour, falling back to the
// Sekanina cube tour if that is better, and to the exact solver on tiny
// instances. Returns the tour and its bottleneck.
func BestTour(tree *mst.Tree) ([]int, float64) {
	tour, b, _ := BestTourCtx(context.Background(), tree)
	return tour, b
}

// BestTourCtx is BestTour under a context: the 2-opt repair loop — the
// dominant cost at large n — polls the context between moves, so an
// expired request abandons the solve promptly with ctx.Err() instead of
// finishing a tour nobody is waiting for.
func BestTourCtx(ctx context.Context, tree *mst.Tree) ([]int, float64, error) {
	pts := tree.Pts
	n := len(pts)
	if n == 0 {
		return nil, 0, nil
	}
	if n <= 11 {
		if t, b, ok := ExactBottleneckTour(pts); ok {
			return t, b, nil
		}
	}
	sc, err := TwoOptBottleneckCtx(ctx, pts, ShortcutTour(tree), 4*n)
	if err != nil {
		return nil, 0, err
	}
	cu := CubeTour(tree)
	bs, bc := TourBottleneck(pts, sc), TourBottleneck(pts, cu)
	if bc < bs {
		return cu, bc, nil
	}
	return sc, bs, nil
}
