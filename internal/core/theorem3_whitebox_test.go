package core

import (
	"math"
	"testing"

	"repro/internal/antenna"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/mst"
)

// deg5Config describes a hand-built degree-5 scenario: vertex u at the
// origin with four unit-length children at the given absolute ray angles,
// a tree parent, and a Property-1 target (which may differ from the parent
// to simulate sibling assignments). All the paper's degree-5 sub-cases are
// reachable by choosing these angles; see the case conditions in
// theorem3.go / theorem3part2.go.
type deg5Config struct {
	name       string
	part1      bool
	phi        float64
	children   [4]float64 // absolute ray angles, CCW from the target ray
	parentAng  float64
	targetAng  float64
	targetDist float64
	wantCase   string
}

// runDeg5 builds the 6-vertex tree (parent, u, 4 children), invokes the
// degree-5 handler directly, and validates the emitted antennae and tasks.
func runDeg5(t *testing.T, cfg deg5Config) {
	t.Helper()
	u := geom.Point{}
	pts := []geom.Point{
		geom.Polar(u, cfg.parentAng, 0.95), // 0: parent
		u,                                  // 1: u
		geom.Polar(u, cfg.children[0], 1),  // 2..5: children
		geom.Polar(u, cfg.children[1], 1),
		geom.Polar(u, cfg.children[2], 1),
		geom.Polar(u, cfg.children[3], 1),
	}
	tree := mst.NewTree(pts, [][2]int{{0, 1}, {1, 2}, {1, 3}, {1, 4}, {1, 5}})
	rooted, err := mst.RootAt(tree, 0)
	if err != nil {
		t.Fatalf("%s: rooting: %v", cfg.name, err)
	}
	res := newResult("whitebox", 2, cfg.phi)
	c := &t3ctx{
		res:    res,
		asg:    antenna.New(pts),
		rooted: rooted,
		phi:    cfg.phi,
		part1:  cfg.part1,
		rBound: res.Bound * 1.0,
	}
	target := geom.Polar(u, cfg.targetAng, cfg.targetDist)
	if cfg.part1 {
		c.orientDeg5Part1(1, target)
	} else {
		c.orientDeg5Part2(1, target)
	}

	if len(res.Violations) != 0 {
		t.Fatalf("%s: violations: %v", cfg.name, res.Violations)
	}
	if res.Cases[cfg.wantCase] != 1 {
		t.Fatalf("%s: expected case %q, got %v", cfg.name, cfg.wantCase, res.Cases)
	}
	// The target must be covered by u.
	if !c.asg.Covers(1, target) {
		t.Fatalf("%s: target not covered by u's antennae", cfg.name)
	}
	// Spread budget.
	if sp := c.asg.SpreadAt(1); sp > cfg.phi+1e-9 {
		t.Fatalf("%s: spread %.6f > phi %.6f", cfg.name, sp, cfg.phi)
	}
	if c.asg.AntennaCount(1) > 2 {
		t.Fatalf("%s: %d antennae at u", cfg.name, c.asg.AntennaCount(1))
	}
	// Each child receives exactly one task, with target u or a sibling
	// within the radius bound.
	taskOf := map[int]geom.Point{}
	for _, tk := range c.stack {
		if _, dup := taskOf[tk.u]; dup {
			t.Fatalf("%s: child %d got two tasks", cfg.name, tk.u)
		}
		taskOf[tk.u] = tk.target
	}
	for ci := 2; ci <= 5; ci++ {
		if _, ok := taskOf[ci]; !ok {
			t.Fatalf("%s: child %d got no task", cfg.name, ci)
		}
	}
	// Local strong connectivity: nodes u(0') and children(1'..4'); u→c
	// when u's sectors cover c; c→x when c's task target is x (u or a
	// sibling — covering the target is the child's Property-1 obligation,
	// assumed holding by induction).
	g := graph.NewDigraph(5)
	local := map[int]int{1: 0, 2: 1, 3: 2, 4: 3, 5: 4}
	for ci := 2; ci <= 5; ci++ {
		if c.asg.CoversVertex(1, ci) {
			g.AddEdge(0, local[ci])
		}
		tgt := taskOf[ci]
		found := false
		for vi := 1; vi <= 5; vi++ {
			if vi != ci && tgt.Eq(pts[vi]) {
				g.AddEdge(local[ci], local[vi])
				found = true
				// Sibling hops must respect the radius bound.
				if vi >= 2 {
					if d := pts[ci].Dist(pts[vi]); d > c.rBound+1e-9 {
						t.Fatalf("%s: sibling hop %d->%d = %.6f > R %.6f", cfg.name, ci, vi, d, c.rBound)
					}
				}
			}
		}
		if !found {
			t.Fatalf("%s: child %d task target %v is neither u nor a sibling", cfg.name, ci, tgt)
		}
	}
	if !graph.StronglyConnected(g) {
		t.Fatalf("%s: local wiring not strongly connected", cfg.name)
	}
}

func TestDeg5Part1AllCases(t *testing.T) {
	pi := math.Pi
	cases := []deg5Config{
		{
			name: "inside-g1", part1: true, phi: pi,
			children:  [4]float64{1.2, 2.5, 3.9, 5.2},
			parentAng: 0, targetAng: 0, targetDist: 0.95,
			wantCase: "t3-deg5p1-inside-g1",
		},
		{
			name: "inside-g2", part1: true, phi: pi,
			children:  [4]float64{1.2, 2.4, 3.5, 5.2},
			parentAng: 0, targetAng: 0, targetDist: 0.95,
			wantCase: "t3-deg5p1-inside-g2",
		},
		{
			name: "inside-g3", part1: true, phi: pi,
			children:  [4]float64{1.2, 2.6, 4.1, 5.2},
			parentAng: 0, targetAng: 0, targetDist: 0.95,
			wantCase: "t3-deg5p1-inside-g3",
		},
		{
			// Sibling target: parent hides in gap(u2,u3), target is a
			// simulated sibling in gap(u4,u1).
			name: "outside-fwd", part1: true, phi: pi,
			children:  [4]float64{0.4, 1.0, 2.5, 4.5},
			parentAng: 1.7, targetAng: 0, targetDist: 1.1,
			wantCase: "t3-deg5p1-outside-fwd",
		},
		{
			name: "outside-bwd", part1: true, phi: pi,
			children:  [4]float64{0.5, 2.0, 3.9, 4.6},
			parentAng: 1.2, targetAng: 5.6, targetDist: 1.1,
			wantCase: "t3-deg5p1-outside-bwd",
		},
	}
	for _, cfg := range cases {
		runDeg5(t, cfg)
	}
}

func TestDeg5Part2AllCases(t *testing.T) {
	pi := math.Pi
	cases := []deg5Config{
		{
			name: "out-wide", part1: false, phi: 0.9 * pi,
			children:  [4]float64{0.4, 1.4, 3.2, 4.9},
			parentAng: 2.4, targetAng: 6.0, targetDist: 0.9,
			wantCase: "t3-deg5p2-out-wide",
		},
		{
			name: "out-bridge-g34", part1: false, phi: 0.7 * pi,
			children:  [4]float64{0.4, 1.4, 3.2, 4.9},
			parentAng: 2.4, targetAng: 6.0, targetDist: 0.9,
			wantCase: "t3-deg5p2-out-bridge",
		},
		{
			name: "out-bridge-g23", part1: false, phi: 0.7 * pi,
			children:  [4]float64{0.4, 1.4, 3.0, 4.9},
			parentAng: 2.2, targetAng: 6.0, targetDist: 0.9,
			wantCase: "t3-deg5p2-out-bridge",
		},
		{
			name: "in-a1", part1: false, phi: 0.75 * pi,
			children:  [4]float64{1.3, 2.4, 4.0, 5.0},
			parentAng: 0.2, targetAng: 0, targetDist: 0.95,
			wantCase: "t3-deg5p2-in-a1",
		},
		{
			name: "in-a2", part1: false, phi: 0.72 * pi,
			children:  [4]float64{1.05, 2.1, 3.3, 5.2},
			parentAng: 6.0, targetAng: 0, targetDist: 0.95,
			wantCase: "t3-deg5p2-in-a2",
		},
		{
			name: "in-a3", part1: false, phi: 0.67 * pi,
			children:  [4]float64{1.15, 2.0, 3.5, 5.2},
			parentAng: 6.0, targetAng: 0, targetDist: 0.95,
			wantCase: "t3-deg5p2-in-a3",
		},
		{
			name: "case2a", part1: false, phi: 2 * pi / 3,
			children:  [4]float64{1.15, 2.35, 3.733, 5.233},
			parentAng: 6.1, targetAng: 0, targetDist: 0.95,
			wantCase: "t3-deg5p2-case2a",
		},
		{
			name: "case2bi", part1: false, phi: 0.7 * pi,
			children:  [4]float64{1.4, 2.3, 3.3, 5.383},
			parentAng: 6.0, targetAng: 0, targetDist: 0.95,
			wantCase: "t3-deg5p2-case2bi",
		},
		{
			name: "case2bii", part1: false, phi: 0.7 * pi,
			children:  [4]float64{1.4, 2.3, 3.6, 5.383},
			parentAng: 6.0, targetAng: 0, targetDist: 0.95,
			wantCase: "t3-deg5p2-case2bii",
		},
		{
			name: "mirror-case2a", part1: false, phi: 2 * pi / 3,
			children:  [4]float64{1.05, 2.25, 3.633, 5.133},
			parentAng: 0.2, targetAng: 0, targetDist: 0.95,
			wantCase: "t3-deg5p2-case2a",
		},
		{
			name: "mirror-case2bi", part1: false, phi: 0.7 * pi,
			children:  [4]float64{0.9, 2.983, 3.983, 4.883},
			parentAng: 0.1, targetAng: 0, targetDist: 0.95,
			wantCase: "t3-deg5p2-case2bi",
		},
		{
			name: "mirror-case2bii", part1: false, phi: 0.7 * pi,
			children:  [4]float64{0.9, 2.3, 3.6, 4.883},
			parentAng: 0.1, targetAng: 0, targetDist: 0.95,
			wantCase: "t3-deg5p2-case2bii",
		},
	}
	for _, cfg := range cases {
		runDeg5(t, cfg)
	}
}

// TestStarFieldIntegration runs the full Theorem 3 pipeline on star fields
// whose EMSTs contain degree-5 hubs, covering the "inside" cases
// end-to-end (not just white-box).
func TestStarFieldIntegration(t *testing.T) {
	countsP1 := map[string]int{}
	countsP2 := map[string]int{}
	deg5Seen := false
	for seed := int64(0); seed < 30; seed++ {
		pts := starFieldForTest(seed)
		tree := mst.Euclidean(pts)
		if tree.MaxDegree() == 5 {
			deg5Seen = true
		}
		for _, phiFrac := range []float64{1.0, 0.8} {
			phi := phiFrac * math.Pi
			asg, res := OrientTwoAntennae(tree, phi)
			if len(res.Violations) != 0 {
				t.Fatalf("seed %d phi %.2f: %v", seed, phi, res.Violations[0])
			}
			g := asg.InducedDigraph()
			if !graph.StronglyConnected(g) {
				t.Fatalf("seed %d phi %.2f: not strongly connected", seed, phi)
			}
			bound, _ := Bound(2, phi)
			if res.RadiusRatio() > bound+1e-7 {
				t.Fatalf("seed %d phi %.2f: ratio %.4f > bound %.4f", seed, phi, res.RadiusRatio(), bound)
			}
			dst := countsP1
			if phiFrac != 1.0 {
				dst = countsP2
			}
			for c, n := range res.Cases {
				dst[c] += n
			}
		}
	}
	if !deg5Seen {
		t.Fatal("star fields produced no degree-5 MST vertices; generator broken")
	}
	if countsP1["t3-deg5p1-inside-g1"]+countsP1["t3-deg5p1-inside-g2"]+countsP1["t3-deg5p1-inside-g3"] == 0 {
		t.Fatalf("no part-1 degree-5 case exercised end-to-end: %v", countsP1)
	}
	deg5P2 := 0
	for c, n := range countsP2 {
		if len(c) > 10 && c[:10] == "t3-deg5p2-" {
			deg5P2 += n
		}
	}
	if deg5P2 == 0 {
		t.Fatalf("no part-2 degree-5 case exercised end-to-end: %v", countsP2)
	}
}
