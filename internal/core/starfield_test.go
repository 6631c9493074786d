package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/pointset"
)

func starFieldForTest(seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	return pointset.StarField(rng, 2+rng.Intn(3))
}

func TestStarFieldHasDegree5Hubs(t *testing.T) {
	hits := 0
	for seed := int64(0); seed < 20; seed++ {
		pts := starFieldForTest(seed)
		tree := mst.Euclidean(pts)
		if err := tree.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if tree.MaxDegree() == 5 {
			hits++
		}
		if tree.MaxDegree() > 5 {
			t.Fatalf("seed %d: degree %d", seed, tree.MaxDegree())
		}
	}
	if hits < 15 {
		t.Fatalf("only %d/20 star fields produced a degree-5 hub", hits)
	}
}

func TestStarFieldAllAlgorithms(t *testing.T) {
	// Every Table-1 algorithm must survive the adversarial star fields.
	for seed := int64(0); seed < 6; seed++ {
		pts := starFieldForTest(seed)
		for _, row := range Table1Rows() {
			asg, res, err := Orient(pts, row.K, row.Phi)
			if err != nil {
				t.Fatalf("seed %d row %s: %v", seed, row.Name, err)
			}
			if len(res.Violations) != 0 {
				t.Fatalf("seed %d row %s: %v", seed, row.Name, res.Violations[0])
			}
			if !graph.StronglyConnected(asg.InducedDigraph()) {
				t.Fatalf("seed %d row %s: not strongly connected", seed, row.Name)
			}
			if res.RadiusRatio() > res.Guarantee+1e-7 {
				t.Fatalf("seed %d row %s: ratio %.4f > guarantee %.4f",
					seed, row.Name, res.RadiusRatio(), res.Guarantee)
			}
		}
	}
}

func TestTheorem56OnStarFields(t *testing.T) {
	// Theorem 5/6 must exercise their 5-children chain cases when rooted
	// at a degree-5 hub.
	counts5 := map[string]int{}
	counts6 := map[string]int{}
	for seed := int64(0); seed < 25; seed++ {
		tree := mst.Euclidean(starFieldForTest(seed))
		_, res5 := OrientThreeAntennae(tree, 0)
		if len(res5.Violations) != 0 {
			t.Fatalf("seed %d: theorem 5: %v", seed, res5.Violations[0])
		}
		for c, n := range res5.Cases {
			counts5[c] += n
		}
		_, res6 := OrientFourAntennae(tree, 0)
		if len(res6.Violations) != 0 {
			t.Fatalf("seed %d: theorem 6: %v", seed, res6.Violations[0])
		}
		for c, n := range res6.Cases {
			counts6[c] += n
		}
	}
	if counts5["children-5"] == 0 {
		t.Fatalf("theorem 5 never saw a 5-child root: %v", counts5)
	}
	if counts5["chain-5"] == 0 {
		t.Fatalf("theorem 5 never built a full 5-chain: %v", counts5)
	}
	if counts6["children-5"] == 0 {
		t.Fatalf("theorem 6 never saw a 5-child root: %v", counts6)
	}
	if counts6["chain-2"]+counts6["chain-3"] == 0 {
		t.Fatalf("theorem 6 never bridged on star fields: %v", counts6)
	}
}

func TestNestedStarShape(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pts := pointset.NestedStar(rng)
		tree := mst.Euclidean(pts)
		if err := tree.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// The orientation must still work whatever degree profile the
		// nested construction produced.
		for _, phi := range []float64{math.Pi, 0.75 * math.Pi} {
			asg, res := OrientTwoAntennae(tree, phi)
			if len(res.Violations) != 0 {
				t.Fatalf("seed %d: %v", seed, res.Violations[0])
			}
			if !graph.StronglyConnected(asg.InducedDigraph()) {
				t.Fatalf("seed %d: not strongly connected", seed)
			}
		}
	}
}
