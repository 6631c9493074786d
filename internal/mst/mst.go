// Package mst computes Euclidean minimum spanning trees and the
// tree-shaped views the paper's orientation algorithms consume: a
// max-degree-5 EMST (Section 2's "well-known geometric considerations"),
// rooted trees with counterclockwise child orderings, the bottleneck edge
// length l_max, and validators for the geometric Facts 1 and 2 the proofs
// rely on.
package mst

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/graph"
)

// Tree is a Euclidean spanning tree over a point set.
type Tree struct {
	Pts   []geom.Point
	Adj   [][]int // Adj[v] = tree neighbors of v
	edges [][2]int
}

// newTree builds a Tree from an edge list. Out-of-range edges are kept in
// the edge list (so Validate reports them) but skipped in the adjacency.
// The adjacency lists share one counted backing array, so construction is
// two passes with a single allocation instead of per-vertex append churn.
func newTree(pts []geom.Point, edges [][2]int) *Tree {
	n := len(pts)
	t := &Tree{Pts: pts, Adj: make([][]int, n), edges: edges}
	deg := make([]int, n)
	valid := 0
	for _, e := range edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
			continue
		}
		deg[e[0]]++
		deg[e[1]]++
		valid++
	}
	backing := make([]int, 2*valid)
	off := 0
	for v := 0; v < n; v++ {
		t.Adj[v] = backing[off : off : off+deg[v]]
		off += deg[v]
	}
	for _, e := range edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
			continue
		}
		t.Adj[e[0]] = append(t.Adj[e[0]], e[1])
		t.Adj[e[1]] = append(t.Adj[e[1]], e[0])
	}
	return t
}

// NewTree builds a spanning tree from an explicit edge list. Intended for
// tests and for callers that already know the tree (e.g. hand-crafted
// adversarial instances); use Validate to confirm it is a spanning tree.
func NewTree(pts []geom.Point, edges [][2]int) *Tree {
	return newTree(pts, edges)
}

// Edges returns the tree edges as vertex pairs.
func (t *Tree) Edges() [][2]int { return t.edges }

// N returns the number of vertices.
func (t *Tree) N() int { return len(t.Pts) }

// Degree returns the tree degree of v.
func (t *Tree) Degree(v int) int { return len(t.Adj[v]) }

// MaxDegree returns the maximum vertex degree of the tree.
func (t *Tree) MaxDegree() int {
	best := 0
	for v := range t.Adj {
		if d := len(t.Adj[v]); d > best {
			best = d
		}
	}
	return best
}

// LMax returns the bottleneck (longest) edge length, the paper's l_max.
// Zero for trees with fewer than two vertices.
func (t *Tree) LMax() float64 {
	var best float64
	for _, e := range t.edges {
		if d := t.Pts[e[0]].Dist(t.Pts[e[1]]); d > best {
			best = d
		}
	}
	return best
}

// TotalLength returns the sum of edge lengths.
func (t *Tree) TotalLength() float64 {
	var s float64
	for _, e := range t.edges {
		s += t.Pts[e[0]].Dist(t.Pts[e[1]])
	}
	return s
}

// Undirected converts the tree into a weighted undirected graph.
func (t *Tree) Undirected() *graph.Undirected {
	g := graph.NewUndirected(len(t.Pts))
	for _, e := range t.edges {
		g.AddEdge(e[0], e[1], t.Pts[e[0]].Dist(t.Pts[e[1]]))
	}
	return g
}

// Validate checks the tree invariants: spanning, acyclic, consistent
// adjacency. Returns nil when healthy.
func (t *Tree) Validate() error {
	n := len(t.Pts)
	if n == 0 {
		if len(t.edges) != 0 {
			return fmt.Errorf("mst: %d edges on empty point set", len(t.edges))
		}
		return nil
	}
	if len(t.edges) != n-1 {
		return fmt.Errorf("mst: %d edges for %d vertices", len(t.edges), n)
	}
	d := graph.NewDSU(n)
	for _, e := range t.edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
			return fmt.Errorf("mst: edge %v out of range", e)
		}
		if !d.Union(e[0], e[1]) {
			return fmt.Errorf("mst: cycle through edge %v", e)
		}
	}
	if d.Sets() != 1 {
		return fmt.Errorf("mst: %d components", d.Sets())
	}
	return nil
}

// Prim computes a Euclidean MST with the dense O(n²) Prim algorithm. It is
// exact, allocation-light, and the reference implementation the others are
// tested against.
func Prim(pts []geom.Point) *Tree {
	n := len(pts)
	if n == 0 {
		return newTree(pts, nil)
	}
	inTree := make([]bool, n)
	dist := make([]float64, n)
	from := make([]int, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		from[i] = -1
	}
	dist[0] = 0
	edges := make([][2]int, 0, n-1)
	for iter := 0; iter < n; iter++ {
		best := -1
		bestD := math.Inf(1)
		for v := 0; v < n; v++ {
			if !inTree[v] && dist[v] < bestD {
				best, bestD = v, dist[v]
			}
		}
		if best < 0 {
			break
		}
		inTree[best] = true
		if from[best] >= 0 {
			edges = append(edges, [2]int{from[best], best})
		}
		bp := pts[best]
		for v := 0; v < n; v++ {
			if inTree[v] {
				continue
			}
			if d := bp.Dist2(pts[v]); d < dist[v] {
				dist[v] = d
				from[v] = best
			}
		}
	}
	return newTree(pts, edges)
}

// Euclidean computes a max-degree-5 Euclidean MST: the Delaunay-filtered
// Kruskal (O(n log n)) at every size, followed by degree repair. This is
// the tree every orientation algorithm in the paper starts from.
func Euclidean(pts []geom.Point) *Tree {
	return RepairDegree(Delaunay(pts), 5)
}

// RepairDegree rewires a Euclidean spanning tree so no vertex exceeds
// maxDeg, without increasing the bottleneck. In a Euclidean MST two edges
// at a vertex subtend ≥ π/3, so degree 6 can only arise from exact ties;
// the classical swap replaces the longer of two edges subtending ≤ π/3
// (within tolerance) with the edge between the two neighbors, which is no
// longer than the removed edge. The tree is returned (possibly the same
// object when no repair was needed).
func RepairDegree(t *Tree, maxDeg int) *Tree {
	if t.MaxDegree() <= maxDeg {
		return t
	}
	n := len(t.Pts)
	// Work on a mutable adjacency set.
	adj := make([]map[int]bool, n)
	for v := range t.Adj {
		adj[v] = make(map[int]bool, len(t.Adj[v]))
		for _, u := range t.Adj[v] {
			adj[v][u] = true
		}
	}
	changed := true
	guard := 0
	for changed && guard < 4*n+16 {
		changed = false
		guard++
		for v := 0; v < n; v++ {
			for len(adj[v]) > maxDeg {
				// Find the pair of neighbors with the smallest angle at v.
				nbs := make([]int, 0, len(adj[v]))
				for u := range adj[v] {
					nbs = append(nbs, u)
				}
				sort.Slice(nbs, func(a, b int) bool {
					return geom.Dir(t.Pts[v], t.Pts[nbs[a]]) < geom.Dir(t.Pts[v], t.Pts[nbs[b]])
				})
				bi := 0
				bestAngle := math.Inf(1)
				for i := range nbs {
					j := (i + 1) % len(nbs)
					ang := geom.CCW(geom.Dir(t.Pts[v], t.Pts[nbs[i]]), geom.Dir(t.Pts[v], t.Pts[nbs[j]]))
					if ang < bestAngle {
						bestAngle = ang
						bi = i
					}
				}
				a := nbs[bi]
				b := nbs[(bi+1)%len(nbs)]
				// Remove the longer of (v,a), (v,b); add (a,b).
				da := t.Pts[v].Dist(t.Pts[a])
				db := t.Pts[v].Dist(t.Pts[b])
				drop := a
				keep := b
				if db > da {
					drop = b
					keep = a
				}
				delete(adj[v], drop)
				delete(adj[drop], v)
				adj[keep][drop] = true
				adj[drop][keep] = true
				changed = true
			}
		}
	}
	edges := make([][2]int, 0, n-1)
	for v := 0; v < n; v++ {
		for u := range adj[v] {
			if u > v {
				edges = append(edges, [2]int{v, u})
			}
		}
	}
	return newTree(t.Pts, edges)
}
