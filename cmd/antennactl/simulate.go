package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/radio"
	"repro/internal/route"
	"repro/internal/service"
)

// cmdSimulate runs a communication simulation over an oriented network:
// broadcast flooding, geographic routing, or failure injection.
func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	in := fs.String("in", "", "input CSV of sensor coordinates (default stdin)")
	k := fs.Int("k", 2, "antennae per sensor")
	phiStr := fs.String("phi", "1pi", "total spread budget")
	mode := fs.String("sim", "broadcast", "broadcast|route|fail")
	src := fs.Int("src", 0, "source sensor for broadcast")
	fails := fs.Int("fails", 10, "failures to inject (fail mode)")
	seed := fs.Int64("seed", 1, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	phi, err := parsePhi(*phiStr)
	if err != nil {
		return err
	}
	pts, err := loadPoints(*in)
	if err != nil {
		return err
	}
	// One solve per invocation: fail mode's live instance solves the same
	// request as its revision 1, a memory hit on this artifact.
	sol, _, err := service.Shared().Solve(context.Background(),
		service.Request{Pts: pts, K: *k, Phi: phi, Algo: core.DefaultOrienterName})
	if err != nil {
		return err
	}
	fmt.Printf("network     %d sensors, %d edges, %s\n", len(pts), sol.Edges, sol.Construction)
	asg, err := sol.Assignment(pts)
	if err != nil {
		return err
	}
	g := asg.InducedDigraph()

	switch *mode {
	case "broadcast":
		r := radio.Broadcast(g, *src)
		fmt.Printf("flood       src=%d rounds=%d informed=%d/%d complete=%v\n",
			*src, r.Rounds, r.Informed, len(pts), r.Complete)
		maxR, meanR, all := radio.BroadcastAll(g)
		fmt.Printf("all-sources max=%d mean=%.1f complete=%v\n", maxR, meanR, all)
		st := radio.Interference(asg)
		fmt.Printf("overhear    %s\n", st.String())
	case "route":
		sg := route.Evaluate(pts, g, route.Greedy, 1+len(pts)/60)
		sc := route.Evaluate(pts, g, route.Compass, 1+len(pts)/60)
		fmt.Printf("greedy      delivered %.1f%% (stuck %d, loops %d), stretch %.2f\n",
			sg.Rate()*100, sg.Stuck, sg.Loops, sg.Stretch)
		fmt.Printf("compass     delivered %.1f%% (stuck %d, loops %d), stretch %.2f\n",
			sc.Rate()*100, sc.Stuck, sc.Loops, sc.Stretch)
	case "fail":
		// One stage of -fails kills through a live instance: the impact is
		// measured on revision 1, the repair is the revision the kills
		// produce (incremental splice or full re-solve).
		n := *fails
		if n >= len(pts) {
			n = len(pts) / 2
		}
		if n < 1 {
			return fmt.Errorf("fail mode needs -fails ≥ 1 and at least 2 sensors")
		}
		stages, err := dynamics.RunScenario(pts, dynamics.Scenario{K: *k, Phi: phi, Step: n, MaxFails: n}, rand.New(rand.NewSource(*seed)))
		if err != nil {
			return err
		}
		imp, rep := stages[0].Impact, stages[0].Repair
		fmt.Printf("failures    %d killed, residual SCC %.1f%% of %d survivors (strong=%v)\n",
			n, imp.SCCFraction*100, imp.Survivors, imp.StillStrong)
		fmt.Printf("repair      strong=%v churn=%d/%d (%.1f%%) %s\n",
			rep.Strong, rep.Churn, rep.Survivors, rep.ChurnFrac*100, rep.Kind)
	default:
		return fmt.Errorf("unknown -sim mode %q", *mode)
	}
	return nil
}
