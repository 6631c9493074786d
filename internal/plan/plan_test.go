package plan

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mst"
	"repro/internal/pointset"
	"repro/internal/verify"
)

// TestPlanPicksTwoRayOnLowPhiK2 is the headline planner requirement: on a
// (k=2, φ=0) budget the only sub-3-stretch strong option is tworay, and
// the planner must find it without being told its name.
func TestPlanPicksTwoRayOnLowPhiK2(t *testing.T) {
	var p Planner
	for _, phi := range []float64{0, 0.1, core.Phi2Min - 0.2} {
		d, err := p.Plan(Objective{Conn: core.ConnStrong, Minimize: MinStretch}, 2, phi)
		if err != nil {
			t.Fatalf("phi=%.3f: %v", phi, err)
		}
		if d.Winner != "tworay" {
			t.Fatalf("phi=%.3f: planner chose %q, want tworay (shortlist %v)", phi, d.Winner, d.Shortlist)
		}
		if d.Guarantee.Stretch != 2 {
			t.Fatalf("phi=%.3f: winner guarantee stretch %.3f, want 2", phi, d.Guarantee.Stretch)
		}
	}
}

// TestPlanPicksSymmetricCapable: when the objective demands symmetric
// connectivity the planner must select an orienter that guarantees it —
// bats at (k=1, φ=π) where it is the only option, cover at (k=2, φ=6π/5)
// where its stretch-1 guarantee dominates.
func TestPlanPicksSymmetricCapable(t *testing.T) {
	var p Planner
	obj := Objective{Conn: core.ConnSymmetric, Minimize: MinStretch}

	d, err := p.Plan(obj, 1, math.Pi)
	if err != nil {
		t.Fatal(err)
	}
	if d.Winner != "bats" {
		t.Fatalf("symmetric (k=1, π): chose %q, want bats", d.Winner)
	}

	d, err = p.Plan(obj, 2, core.Phi2Full)
	if err != nil {
		t.Fatal(err)
	}
	if d.Winner != "cover" {
		t.Fatalf("symmetric (k=2, 6π/5): chose %q, want cover", d.Winner)
	}
	if d.Guarantee.Conn != core.ConnSymmetric {
		t.Fatalf("winner guarantee conn %v, want symmetric", d.Guarantee.Conn)
	}
}

// TestPlanMinimizeAntennae: at (k=2, φ=π) a single anchored arc (k1) and
// bats both use one antenna; k1's smaller stretch must break the tie.
func TestPlanMinimizeAntennae(t *testing.T) {
	var p Planner
	d, err := p.Plan(Objective{Conn: core.ConnStrong, Minimize: MinAntennae}, 2, math.Pi)
	if err != nil {
		t.Fatal(err)
	}
	if d.Winner != "k1" {
		t.Fatalf("min-antennae (k=2, π): chose %q, want k1", d.Winner)
	}
	if d.Guarantee.Antennae != 1 {
		t.Fatalf("winner uses %d antennae, want 1", d.Guarantee.Antennae)
	}
}

// TestPlanInfeasible: symmetric connectivity below every symmetric
// region must fail with the rejections explaining why.
func TestPlanInfeasible(t *testing.T) {
	var p Planner
	_, err := p.Plan(Objective{Conn: core.ConnSymmetric}, 1, 0.5)
	if err == nil {
		t.Fatal("expected no feasible orienter for symmetric at (k=1, φ=0.5)")
	}
}

// TestPlanDeterministic: repeated planning over the whole portfolio grid
// must yield identical decisions.
func TestPlanDeterministic(t *testing.T) {
	var p Planner
	objs := []Objective{
		{Conn: core.ConnStrong, Minimize: MinStretch},
		{Conn: core.ConnStrong, Minimize: MinAntennae},
		{Conn: core.ConnSymmetric, Minimize: MinStretch},
	}
	for _, obj := range objs {
		for _, b := range core.PortfolioBudgets() {
			d1, err1 := p.Plan(obj, b.K, b.Phi)
			d2, err2 := p.Plan(obj, b.K, b.Phi)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("obj %s budget %+v: errors diverge", obj.Key(), b)
			}
			if err1 != nil {
				continue
			}
			if d1.Winner != d2.Winner || len(d1.Shortlist) != len(d2.Shortlist) {
				t.Fatalf("obj %s budget %+v: decisions diverge: %q vs %q", obj.Key(), b, d1.Winner, d2.Winner)
			}
		}
	}
}

// TestPlannedGuaranteeVerifies is the planner property test: on every
// budget of the portfolio grid × generator family, the chosen orienter's
// output must independently verify against the guarantee the planner
// attached — the decision is only as good as the promise it returns.
func TestPlannedGuaranteeVerifies(t *testing.T) {
	var p Planner
	objs := []Objective{
		{Conn: core.ConnStrong, Minimize: MinStretch},
		{Conn: core.ConnSymmetric, Minimize: MinStretch},
	}
	workloads := []string{"uniform", "clusters", "line"}
	for _, obj := range objs {
		for _, b := range core.PortfolioBudgets() {
			d, err := p.Plan(obj, b.K, b.Phi)
			if err != nil {
				continue // infeasible budgets are allowed to fail
			}
			if !obj.SatisfiedBy(d.Guarantee) {
				t.Fatalf("obj %s budget %+v: winner %q guarantee does not satisfy objective", obj.Key(), b, d.Winner)
			}
			o, ok := core.LookupOrienter(d.Winner)
			if !ok {
				t.Fatalf("winner %q not registered", d.Winner)
			}
			for wi, wl := range workloads {
				rng := rand.New(rand.NewSource(int64(7001 + wi)))
				pts := workloadPoints(wl, rng, 60)
				asg, res, err := o.Orient(pts, b.K, b.Phi)
				if err != nil {
					t.Fatalf("obj %s budget %+v winner %q: orient: %v", obj.Key(), b, d.Winner, err)
				}
				if len(res.Violations) > 0 {
					t.Fatalf("obj %s budget %+v winner %q: violation: %s", obj.Key(), b, d.Winner, res.Violations[0])
				}
				rep := verify.Check(asg, VerifyBudgets(d.Guarantee))
				if !rep.OK() {
					t.Fatalf("obj %s budget %+v winner %q wl %s: verification failed: %s",
						obj.Key(), b, d.Winner, wl, rep.String())
				}
			}
		}
	}
}

// workloadPoints mirrors the experiment generator families without
// importing package experiments (which imports the service layer).
func workloadPoints(kind string, rng *rand.Rand, n int) []geom.Point {
	switch kind {
	case "clusters":
		return pointset.Clusters(rng, n, 4, 10, 0.5)
	case "line":
		return pointset.Line(rng, n, 1, 0.3)
	default:
		return pointset.Uniform(rng, n, 8)
	}
}

// TestRacePicksAWinner: with a generous deadline every shortlisted
// candidate finishes, and the race must return a measured winner from the
// shortlist. Every candidate orients the same tree concurrently, so the
// tree must come out of the race unchanged (and, under -race, without a
// data race).
func TestRacePicksAWinner(t *testing.T) {
	var p Planner
	rng := rand.New(rand.NewSource(99))
	pts := pointset.Uniform(rng, 80, 8)
	obj := Objective{Conn: core.ConnStrong, Minimize: MinStretch, Deadline: 30 * time.Second}
	tree := mst.Euclidean(pts)
	planned, err := p.Plan(obj, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := Race(context.Background(), tree, planned, obj.Deadline, 2, 0)
	if fresh := mst.Euclidean(pts); !reflect.DeepEqual(tree.Edges(), fresh.Edges()) || !reflect.DeepEqual(tree.Adj, fresh.Adj) {
		t.Fatal("a race candidate modified the shared EMST")
	}
	if !d.Raced {
		t.Fatal("race fell back to a-priori pick under a generous deadline")
	}
	found := false
	for _, c := range d.Shortlist {
		if c.Name == d.Winner {
			found = true
		}
	}
	if !found {
		t.Fatalf("winner %q not in shortlist", d.Winner)
	}
	if d.Measured <= 0 {
		t.Fatalf("measured radius %.6f, want > 0", d.Measured)
	}
}

// TestObjectiveKey: distinct objectives must map to distinct canonical
// keys, and equal objectives to equal keys.
func TestObjectiveKey(t *testing.T) {
	a := Objective{Conn: core.ConnStrong, Minimize: MinStretch}
	b := Objective{Conn: core.ConnSymmetric, Minimize: MinStretch}
	c := Objective{Conn: core.ConnStrong, Minimize: MinAntennae}
	if a.Key() == b.Key() || a.Key() == c.Key() || b.Key() == c.Key() {
		t.Fatalf("objective keys collide: %q %q %q", a.Key(), b.Key(), c.Key())
	}
	if a.Key() != (Objective{Conn: core.ConnStrong, Minimize: MinStretch}).Key() {
		t.Fatal("equal objectives produce different keys")
	}
}
