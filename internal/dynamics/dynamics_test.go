package dynamics

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/instance"
	"repro/internal/pointset"
)

func TestFailNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := pointset.Uniform(rng, 60, 8)
	asg, _, err := core.Orient(pts, 2, math.Pi)
	if err != nil {
		t.Fatal(err)
	}
	impact := Fail(asg, nil)
	if !impact.StillStrong || impact.Survivors != 60 || impact.SCCFraction != 1 {
		t.Fatalf("no-failure impact wrong: %+v", impact)
	}
}

func TestFailDegradesTourNetwork(t *testing.T) {
	// A directed tour network loses strong connectivity after any single
	// failure (it is a cycle).
	rng := rand.New(rand.NewSource(2))
	pts := pointset.Uniform(rng, 40, 8)
	asg, _, err := core.Orient(pts, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	impact := Fail(asg, []int{7})
	if impact.StillStrong {
		t.Fatal("cycle should break after one failure")
	}
	if impact.Survivors != 39 {
		t.Fatalf("survivors = %d", impact.Survivors)
	}
	if impact.SCCFraction >= 1 {
		t.Fatalf("SCC fraction should drop: %+v", impact)
	}
}

func TestFailAllAndOutOfRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := pointset.Uniform(rng, 10, 4)
	asg, _, err := core.Orient(pts, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, 10)
	for i := range all {
		all[i] = i
	}
	impact := Fail(asg, all)
	if impact.Survivors != 0 || !impact.StillStrong {
		t.Fatalf("total failure impact: %+v", impact)
	}
	// Out-of-range ids are ignored.
	impact = Fail(asg, []int{-1, 99})
	if impact.Survivors != 10 || !impact.StillStrong {
		t.Fatalf("bogus failures impact: %+v", impact)
	}
}

func TestRunScenario(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := pointset.Uniform(rng, 60, 10)
	stages, err := RunScenario(pts, Scenario{K: 4, Phi: 0, Step: 5, MaxFails: 15}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 3 {
		t.Fatalf("stages = %d", len(stages))
	}
	for _, st := range stages {
		if !st.Repair.Strong {
			t.Fatalf("stage %d: repair failed", st.CumulativeFailed)
		}
		if st.Impact.Survivors != 60-st.CumulativeFailed {
			t.Fatalf("stage %d: survivor count wrong", st.CumulativeFailed)
		}
	}
	// Defaults kick in for bogus scenario parameters.
	stages, err = RunScenario(pts, Scenario{K: 5, Phi: 0, Step: 0, MaxFails: 0}, rng)
	if err != nil || len(stages) == 0 {
		t.Fatalf("default scenario failed: %v", err)
	}
}

func TestRunScenarioThroughLiveInstance(t *testing.T) {
	// On an EMST-local budget (k=5 full cover) the scenario's stages must
	// be served by the live-instance repair path, with per-stage kind and
	// latency reported from the manager.
	rng := rand.New(rand.NewSource(7))
	pts := pointset.Uniform(rng, 120, 11)
	stages, err := RunScenario(pts, Scenario{K: 5, Phi: 0, Step: 2, MaxFails: 8, Algo: "cover"}, rng)
	if err != nil {
		t.Fatal(err)
	}
	incremental := 0
	for _, st := range stages {
		if !st.Repair.Strong {
			t.Fatalf("stage %d not verified", st.CumulativeFailed)
		}
		switch st.Repair.Kind {
		case instance.RepairIncremental:
			incremental++
		case instance.RepairFull:
		default:
			t.Fatalf("stage %d: unexpected repair kind %q", st.CumulativeFailed, st.Repair.Kind)
		}
		if st.Repair.Latency <= 0 {
			t.Fatalf("stage %d: no latency recorded", st.CumulativeFailed)
		}
		if st.Repair.Churn == 0 {
			t.Fatalf("stage %d: removals next to tree edges must churn sectors", st.CumulativeFailed)
		}
	}
	if incremental == 0 {
		t.Fatal("no stage took the incremental repair path on an EMST-local budget")
	}
}
