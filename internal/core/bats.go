package core

import (
	"context"
	"math"

	"repro/internal/antenna"
	"repro/internal/geom"
	"repro/internal/mst"
)

// This file implements the bounded-angle spanning-tree orienter ("bats"),
// following the direction of Aschner–Katz, "Bounded-Angle Spanning Tree:
// Modeling Networks with Angular Constraints" (arXiv:1402.6096): pick a
// spanning structure in which every vertex sees all its tree neighbors
// inside one angular wedge of at most φ, then orient a single antenna per
// sensor along that wedge. Every tree edge becomes bidirectional, so the
// network is symmetrically connected — the property needed when links
// must be acknowledged — rather than merely strongly connected.
//
// Two regimes, chosen per instance:
//
//   - When one wedge of spread ≤ φ per vertex already covers all EMST
//     neighbors (always true for φ ≥ 8π/5 by the 5-ray pigeonhole, and
//     typically true much earlier, e.g. φ = π on collinear deployments),
//     the EMST itself is the bounded-angle tree: radius l_max.
//   - Otherwise a Hamiltonian path in the cube of the EMST is used: a
//     path is the extreme bounded-angle tree (≤ 2 neighbors fit a wedge
//     of ≤ π at every vertex), and consecutive path vertices span at most
//     three tree edges, so the radius is at most 3·l_max (Sekanina).
//
// The a-priori guarantee is therefore stretch 1 for φ ≥ 8π/5 and stretch
// 3 for π ≤ φ < 8π/5, always with symmetric connectivity and one antenna.

// OrientBoundedAngleTree orients one antenna of spread at most φ per
// sensor (φ ≥ π) so that the bidirectional links alone connect the
// network. See the package comment above for the construction.
func OrientBoundedAngleTree(tree *mst.Tree, k int, phi float64) (*antenna.Assignment, *Result) {
	pts := tree.Pts
	res := newResult("bats", k, phi)
	res.Bound = batsStretch(phi)
	res.Guarantee = res.Bound
	asg := antenna.New(pts).Reserve(1)
	res.checkf(phi >= math.Pi-geom.AngleEps, "phi %.6f < π not supported by bats", phi)
	if len(pts) <= 1 {
		res.bump("trivial")
		return asg, res
	}
	res.LMax = tree.LMax()

	// One geom arena serves every per-vertex gap computation below; the
	// checkf calls sit behind explicit failure branches so the happy path
	// never boxes their variadic arguments.
	sc := geom.GetScratch()
	defer sc.Release()

	// Regime 1: the EMST is already a φ-bounded-angle tree.
	worst := 0.0
	dirs := make([]float64, 0, 8)
	targets := make([]geom.Point, 0, 8)
	for u := 0; u < tree.N(); u++ {
		dirs = dirs[:0]
		for _, v := range tree.Adj[u] {
			dirs = append(dirs, geom.Dir(pts[u], pts[v]))
		}
		if s := sc.MinCoverSpread(dirs, 1); s > worst {
			worst = s
		}
	}
	if worst <= phi+geom.AngleEps {
		for u := 0; u < tree.N(); u++ {
			targets = targets[:0]
			for _, v := range tree.Adj[u] {
				targets = append(targets, pts[v])
			}
			s, ok := sc.CoverAllSector(pts[u], targets, 0)
			if !ok {
				res.checkf(false, "vertex %d has no MST neighbors", u)
			}
			var far float64
			for _, q := range targets {
				if d := pts[u].Dist(q); d > far {
					far = d
				}
			}
			s.Radius = far
			asg.Add(u, s)
		}
		res.bump("bats-mst-cover")
	} else {
		// Regime 2: Hamiltonian path in the cube of the EMST.
		rooted, err := mst.RootAtLeaf(tree)
		if err != nil {
			res.checkf(false, "rooting failed: %v", err)
			return asg, res
		}
		path := CubePath(rooted)
		if len(path) != len(pts) {
			res.checkf(false, "cube path visits %d of %d sensors", len(path), len(pts))
		}
		hopBound := tourStretch * res.LMax
		for i, v := range path {
			targets = targets[:0]
			if i > 0 {
				targets = append(targets, pts[path[i-1]])
			}
			if i < len(path)-1 {
				d := pts[v].Dist(pts[path[i+1]])
				if d > hopBound+geom.Eps {
					res.checkf(false,
						"path hop %d->%d length %.6f exceeds 3·l_max %.6f", v, path[i+1], d, hopBound)
				}
				targets = append(targets, pts[path[i+1]])
			}
			s, ok := sc.CoverAllSector(pts[v], targets, 0)
			if !ok {
				res.checkf(false, "path vertex %d has no neighbors", v)
			}
			if s.Spread > math.Pi+geom.AngleEps {
				res.checkf(false, "path vertex %d needs spread %.6f > π", v, s.Spread)
			}
			var far float64
			for _, q := range targets {
				if d := pts[v].Dist(q); d > far {
					far = d
				}
			}
			s.Radius = far
			asg.Add(v, s)
		}
		res.bump("bats-cube-path")
	}

	res.RadiusUsed = asg.MaxRadius()
	res.SpreadUsed = asg.MaxSpread()
	res.checkf(res.SpreadUsed <= phi+geom.AngleEps,
		"spread used %.6f exceeds budget %.6f", res.SpreadUsed, phi)
	res.checkf(res.RadiusUsed <= res.Bound*res.LMax+geom.Eps,
		"radius used %.6f exceeds %.4f·l_max", res.RadiusUsed, res.Bound)
	return asg, res
}

// batsStretch is the declared radius bound of the bats orienter.
func batsStretch(phi float64) float64 {
	if phi >= Phi1Full-geom.AngleEps {
		return 1
	}
	return tourStretch
}

func init() {
	RegisterOrienter(&funcOrienter{
		info: OrienterInfo{
			Name:    "bats",
			Summary: "bounded-angle tree, one antenna, symmetric connectivity",
			Region:  "k ≥ 1 (uses 1), φ ≥ π",
			Source:  "Aschner–Katz direction (arXiv:1402.6096)",
			RepK:    1,
			RepPhi:  math.Pi,
		},
		supports: func(k int, phi float64) bool {
			return phi >= math.Pi-geom.AngleEps
		},
		guarantee: func(k int, phi float64) Guarantee {
			return Guarantee{Conn: ConnSymmetric, Stretch: batsStretch(phi), Antennae: 1, Spread: phi, StrongC: 1}
		},
		orient: func(_ context.Context, tree *mst.Tree, k int, phi float64) (*antenna.Assignment, *Result, error) {
			asg, res := OrientBoundedAngleTree(tree, k, phi)
			return asg, res, nil
		},
	})
}

// CubePath returns a Hamiltonian path of the rooted tree in which
// consecutive vertices are within tree distance 3 (hence Euclidean
// distance 3·l_max) — a linear-time specialization of Sekanina's theorem
// that the cube of a tree is Hamiltonian-connected.
//
// The recursion maintains: S(u) starts at u and ends at a child of u (or
// at u itself for a leaf), and R(u) = reverse(S(u)). Expanding the
// reversal gives
//
//	S(u) = u, R(c₁), R(c₂), …, R(cₘ)
//	R(u) = S(cₘ), …, S(c₂), S(c₁), u
//
// so both orders emit in one pass. Every junction is within tree
// distance 3: u to the first vertex of R(c₁) (a child of c₁, or c₁) is
// ≤ 2, and the last vertex of R(cᵢ) (= cᵢ) to the first of R(cᵢ₊₁) is
// ≤ 3 via cᵢ → u → cᵢ₊₁ → child.
func CubePath(r *mst.Rooted) []int {
	n := r.N()
	if n == 0 {
		return nil
	}
	path := make([]int, 0, n)
	var emitS, emitR func(u int)
	emitS = func(u int) {
		path = append(path, u)
		for _, c := range r.Children[u] {
			emitR(c)
		}
	}
	emitR = func(u int) {
		ch := r.Children[u]
		for i := len(ch) - 1; i >= 0; i-- {
			emitS(ch[i])
		}
		path = append(path, u)
	}
	emitS(r.Root)
	return path
}
