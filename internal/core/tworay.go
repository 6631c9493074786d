package core

import (
	"context"
	"repro/internal/antenna"
	"repro/internal/geom"
	"repro/internal/mst"
)

// This file implements the "tworay" orienter, following the
// fewer-antennae direction of Damian–Flatland, "Connectivity of Graphs
// Induced by Directional Antennas" (arXiv:1008.3889): strong connectivity
// from narrow antennas by making nearby sensors cooperate, instead of
// spending spread to cover whole neighborhoods. Two zero-spread rays per
// sensor suffice at radius 2·l_max — between Table 1's φ-hungry k=2 rows
// (which need φ ≥ 2π/3) and the k=3 construction of Theorem 5 (√3·l_max),
// and strictly better than the tour fallback's proven 3·l_max, the only
// prior option at k=2, φ < 2π/3.
//
// Construction. Root the max-degree-5 EMST; at each vertex u with
// children c₁ … cₘ (CCW from the parent direction), orient
//
//	u → c₁,  cᵢ → cᵢ₊₁,  cₘ → u
//
// i.e. one directed cycle per family. Each vertex spends one ray as a
// parent (at its first child) and one as a child (at its next sibling, or
// back at the parent if it is the last child) — never more than two. The
// family cycle makes u and each child mutually reachable, so induction
// over tree edges gives strong connectivity. Parent hops are MST edges
// (≤ l_max) and sibling hops are ≤ 2·l_max by the triangle inequality
// through u, hence the radius bound.

// twoRayStretch is the declared radius bound of the tworay orienter:
// sibling hops cross at most two MST edges.
const twoRayStretch = 2

// OrientTwoRayChains orients two zero-spread antennae per sensor so the
// induced digraph is strongly connected with radius at most 2·l_max. The
// spread budget φ is not consumed. See the file comment for the proof
// sketch.
func OrientTwoRayChains(tree *mst.Tree, k int, phi float64) (*antenna.Assignment, *Result) {
	pts := tree.Pts
	res := newResult("tworay", k, phi)
	res.Bound = twoRayStretch
	res.Guarantee = twoRayStretch
	asg := antenna.New(pts)
	res.checkf(k >= 2, "tworay needs k ≥ 2, got %d", k)
	if len(pts) <= 1 {
		res.bump("trivial")
		return asg, res
	}
	res.LMax = tree.LMax()
	rooted, err := mst.RootAtLeaf(tree)
	if err != nil {
		res.checkf(false, "rooting failed: %v", err)
		return asg, res
	}
	hopBound := twoRayStretch * res.LMax
	for u := 0; u < tree.N(); u++ {
		ref := 0.0
		if p := rooted.Parent[u]; p >= 0 {
			ref = geom.Dir(pts[u], pts[p])
		}
		ch := rooted.ChildrenCCWFrom(u, ref)
		if len(ch) == 0 {
			continue
		}
		res.bump(caseLabel("children", len(ch)))
		asg.AddRayTo(u, ch[0], pts[u].Dist(pts[ch[0]]))
		for i, c := range ch {
			var target int
			if i+1 < len(ch) {
				target = ch[i+1]
				d := pts[c].Dist(pts[target])
				res.checkf(d <= hopBound+geom.Eps,
					"sibling hop %d->%d length %.6f exceeds 2·l_max %.6f", c, target, d, hopBound)
			} else {
				target = u
			}
			asg.AddRayTo(c, target, pts[c].Dist(pts[target]))
		}
	}
	res.RadiusUsed = asg.MaxRadius()
	res.SpreadUsed = asg.MaxSpread()
	res.checkf(asg.MaxAntennas() <= 2, "a sensor uses %d antennae, tworay budget 2", asg.MaxAntennas())
	res.checkf(res.SpreadUsed <= geom.AngleEps, "tworay used spread %.6f", res.SpreadUsed)
	res.checkf(res.RadiusUsed <= hopBound+geom.Eps,
		"radius used %.6f exceeds 2·l_max %.6f", res.RadiusUsed, hopBound)
	return asg, res
}

func init() {
	RegisterOrienter(&funcOrienter{
		info: OrienterInfo{
			Name:    "tworay",
			Summary: "two zero-spread rays, family cycles on the EMST, radius 2·l_max",
			Region:  "k ≥ 2 (uses 2), φ ≥ 0",
			Source:  "Damian–Flatland direction (arXiv:1008.3889)",
			RepK:    2,
			RepPhi:  0,
		},
		supports: func(k int, phi float64) bool { return k >= 2 },
		guarantee: func(k int, phi float64) Guarantee {
			return Guarantee{Conn: ConnStrong, Stretch: twoRayStretch, Antennae: 2, Spread: 0, StrongC: 1}
		},
		orient: func(_ context.Context, tree *mst.Tree, k int, phi float64) (*antenna.Assignment, *Result, error) {
			asg, res := OrientTwoRayChains(tree, k, phi)
			return asg, res, nil
		},
	})
}
