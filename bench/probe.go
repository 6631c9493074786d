package main

import (
	"fmt"
	"strings"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/delaunay"
	"repro/internal/plan"
	"repro/internal/solution"
	"repro/internal/verify"
)

// probeResult is one input timed layer by layer in-process, in ms.
type probeResult struct {
	traceID                                        string
	delaunay, emst, orient, verify, digest, encode float64
}

// runProbes times, on each input, the exported entry point of every
// layer a solve goes through: Delaunay, the EMST bottleneck (the
// public facade's LMax), the orienter the request resolved to, the
// independent verifier at the request's guarantee, the point-set digest,
// and the binary artifact encoding. Nothing is instrumented inside the
// program; the calls are timed from outside.
func runProbes(inputs []probeInput) ([]probeResult, error) {
	var out []probeResult
	for _, in := range inputs {
		p := probeResult{traceID: in.traceID}
		t := time.Now()
		if _, err := delaunay.Build(in.pts); err != nil {
			return nil, fmt.Errorf("delaunay: %w", err)
		}
		p.delaunay = ms(time.Since(t))

		t = time.Now()
		repro.LMax(in.pts)
		p.emst = ms(time.Since(t))

		o, ok := core.LookupOrienter(in.b.resolved)
		if !ok {
			return nil, fmt.Errorf("no orienter %q", in.b.resolved)
		}
		t = time.Now()
		asg, res, err := o.Orient(in.pts, in.b.k, in.b.phi)
		p.orient = ms(time.Since(t))
		if err != nil {
			return nil, fmt.Errorf("orient %s: %w", in.b, err)
		}

		t = time.Now()
		rep := verify.Check(asg, plan.VerifyBudgets(in.b.guar))
		p.verify = ms(time.Since(t))
		if !rep.OK() {
			return nil, fmt.Errorf("probe of %s failed verification: %s", in.b, strings.Join(rep.Errors, "; "))
		}

		t = time.Now()
		digest := solution.Digest(in.pts)
		p.digest = ms(time.Since(t))

		sol := &solution.Solution{
			Version: solution.Version, PointsDigest: digest, N: len(in.pts), K: in.b.k, Phi: in.b.phi,
			Algo: in.b.resolved, Construction: res.Algorithm, Sectors: solution.FromAssignment(asg),
			LMax: rep.LMax, RadiusUsed: rep.MaxRadius, RadiusRatio: rep.RadiusRatio, Edges: rep.Edges, Verified: true,
		}
		t = time.Now()
		sol.EncodeBinary()
		p.encode = ms(time.Since(t))
		out = append(out, p)
	}
	return out, nil
}
