// Package dynamics studies the orientation algorithms as a *living*
// network: sensors fail, the residual digraph degrades, and the network
// re-orients. The paper's conclusion raises exactly this robustness
// question (strong c-connectivity); here we quantify it empirically:
// how much strong connectivity survives f failures before repair, and how
// many surviving sensors must re-aim afterwards (re-orientation churn).
//
// The failure scenarios run through the live-instance tier
// (internal/instance via service.NewInstanceManager): every stage is a
// Remove mutation batch against a long-lived instance, so the churn,
// repair kind (incremental splice vs full re-solve), and latency
// reported here are measured on exactly the code path antennad serves —
// not on a parallel offline reimplementation.
package dynamics

import (
	"context"
	"math/rand"
	"sort"
	"time"

	"repro/internal/antenna"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/instance"
	"repro/internal/service"
	"repro/internal/solution"
)

// FailureImpact describes the residual network after failures, before any
// repair.
type FailureImpact struct {
	Failed      int
	Survivors   int
	LargestSCC  int     // size of the largest residual SCC
	SCCFraction float64 // LargestSCC / Survivors
	StillStrong bool
	Reachable   int // sensors reachable from the first survivor
}

// Fail removes the given sensors from the assignment and analyses the
// residual induced digraph. The assignment itself is not modified.
func Fail(asg *antenna.Assignment, failed []int) FailureImpact {
	n := asg.N()
	dead := make([]bool, n)
	for _, f := range failed {
		if f >= 0 && f < n {
			dead[f] = true
		}
	}
	keep := make([]bool, n)
	survivors := 0
	for v := 0; v < n; v++ {
		keep[v] = !dead[v]
		if keep[v] {
			survivors++
		}
	}
	g := asg.InducedDigraph()
	sub, new2old := g.InducedSubgraph(keep)
	impact := FailureImpact{Failed: len(failed), Survivors: survivors}
	if survivors == 0 {
		impact.StillStrong = true
		impact.SCCFraction = 1
		return impact
	}
	impact.LargestSCC = graph.LargestSCCSize(sub)
	impact.SCCFraction = float64(impact.LargestSCC) / float64(survivors)
	impact.StillStrong = impact.LargestSCC == survivors
	impact.Reachable = sub.ReachableFrom(0)
	_ = new2old
	return impact
}

// RepairResult describes the live instance's re-orientation of the
// surviving sensors after one failure stage.
type RepairResult struct {
	Survivors int
	Strong    bool    // repaired network verified (connectivity + budgets)
	Churn     int     // surviving sensors whose sector set changed
	ChurnFrac float64 // Churn / Survivors
	NewRadius float64 // radius used by the repaired orientation
	// Kind is how the revision was produced — instance.RepairFull or
	// instance.RepairIncremental — and Latency its server-side latency.
	Kind    string
	Latency time.Duration
}

// Scenario runs a progressive-failure experiment: kill `step` random
// sensors at a time (up to maxFailures), measuring residual connectivity
// and repair churn at each stage. Algo selects the orienter the live
// instance runs (empty = the Table-1 dispatcher).
type Scenario struct {
	K        int
	Phi      float64
	Step     int
	MaxFails int
	Algo     string
}

// StageResult is one stage of a failure scenario.
type StageResult struct {
	CumulativeFailed int
	Impact           FailureImpact
	Repair           RepairResult
}

// RunScenario executes the scenario over the given points, driving the
// failure stages through a live instance (instance.Manager) so repair
// churn is measured by exactly the code path that serves churn in
// production: each stage is one Remove batch, the revision's repair kind
// (incremental splice vs full re-solve), changed-sector count, and
// latency come from the manager, and the pre-repair impact is still
// analyzed on the previous revision's assignment.
func RunScenario(pts []geom.Point, sc Scenario, rng *rand.Rand) ([]StageResult, error) {
	if sc.Step <= 0 {
		sc.Step = 1
	}
	if sc.MaxFails <= 0 || sc.MaxFails >= len(pts) {
		sc.MaxFails = len(pts) / 4
	}
	algo := sc.Algo
	if algo == "" {
		algo = core.DefaultOrienterName
	}
	mgr := service.NewInstanceManager(service.Shared())
	snap, err := mgr.Create(context.Background(), "", pts, instance.Budget{K: sc.K, Phi: sc.Phi, Algo: algo})
	if err != nil {
		return nil, err
	}
	id := snap.ID
	defer mgr.Delete(id)

	perm := rng.Perm(len(pts))
	// alive maps original indices to current instance indices so each
	// stage's kill list survives the index shifts of earlier removals.
	alive := make([]int, len(pts))
	for i := range alive {
		alive[i] = i
	}
	var out []StageResult
	for f := sc.Step; f <= sc.MaxFails; f += sc.Step {
		prev, err := mgr.Get(id, 0)
		if err != nil {
			return nil, err
		}
		prevPts := currentPoints(pts, perm, f-sc.Step)
		prevAsg, err := prev.Sol.Assignment(prevPts)
		if err != nil {
			return nil, err
		}
		// Impact of this stage's kills on the *current* orientation,
		// before any repair.
		newlyFailed := make([]int, 0, sc.Step)
		for _, orig := range perm[f-sc.Step : f] {
			newlyFailed = append(newlyFailed, alive[orig])
		}
		impact := Fail(prevAsg, newlyFailed)

		// Apply the kills as one mutation batch, highest index first so
		// the sequential remove semantics leave earlier targets intact.
		ops := make([]instance.Op, len(newlyFailed))
		sorted := append([]int(nil), newlyFailed...)
		sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
		for i, idx := range sorted {
			ops[i] = instance.Op{Op: solution.OpRemove, Index: idx}
		}
		snap, err = mgr.Apply(context.Background(), id, 0, ops)
		if err != nil {
			return nil, err
		}
		// Maintain the original→current index map.
		dead := make(map[int]bool, len(newlyFailed))
		for _, idx := range newlyFailed {
			dead[idx] = true
		}
		for orig, cur := range alive {
			if cur < 0 || dead[alive[orig]] {
				alive[orig] = -1
				continue
			}
			shift := 0
			for _, idx := range sorted {
				if cur > idx {
					shift++
				}
			}
			alive[orig] = cur - shift
		}

		rep := RepairResult{
			Survivors: snap.Sol.N,
			Strong:    snap.Sol.Verified,
			Churn:     snap.Changed,
			NewRadius: snap.Sol.RadiusUsed,
			Kind:      snap.Repair,
			Latency:   snap.Elapsed,
		}
		if rep.Survivors > 0 {
			rep.ChurnFrac = float64(rep.Churn) / float64(rep.Survivors)
		}
		out = append(out, StageResult{CumulativeFailed: f, Impact: impact, Repair: rep})
	}
	return out, nil
}

// currentPoints rebuilds the point set after the first `failed` kills of
// the permutation, mirroring the instance's sequential remove semantics.
func currentPoints(pts []geom.Point, perm []int, failed int) []geom.Point {
	dead := make([]bool, len(pts))
	for _, orig := range perm[:failed] {
		dead[orig] = true
	}
	out := make([]geom.Point, 0, len(pts)-failed)
	for i, p := range pts {
		if !dead[i] {
			out = append(out, p)
		}
	}
	return out
}
