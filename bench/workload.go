package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/geom"
)

// workload is one traffic mix. A workload builds all of its inputs from
// the seed when it is constructed, before any server starts.
type workload interface {
	// config is what the workload asks of antennad beyond its defaults.
	config() serverConfig
	// clients is how many request goroutines (and connections) it uses.
	clients() int
	// setup warms a freshly started, empty server and resets the
	// workload's view of the server's state.
	setup(ctx context.Context, r *run)
	// drive sends the timed traffic for d.
	drive(ctx context.Context, r *run, d time.Duration)
	// audit runs the untimed correctness gates after the window.
	audit(ctx context.Context, r *run)
	// recovered checks what a server restarted over the same data
	// directories reports.
	recovered(ctx context.Context, r *run)
	// probes lists the inputs the traced run times in-process.
	probes() []probeInput
	// scheduleHash digests the inputs and the start of the operation
	// schedule; it depends on the seed alone.
	scheduleHash() string
}

// probeInput is one request's input, timed in-process layer by layer
// after the traced pass; traceID names the request that carried it.
type probeInput struct {
	traceID string
	pts     []geom.Point
	b       budget
}

// workloadNames lists the benchmark's workloads in run order.
var workloadNames = []string{"solve-cold", "orient-mixed", "churn-fleet", "churn-large"}

// generatorConns is the client concurrency cap: one request goroutine
// and one connection per core, and never more than two.
func generatorConns() int { return min(2, runtime.NumCPU()) }

// newWorkload builds a named workload at its benchmark size. seconds is
// the window length, which the open-loop schedule is generated for.
func newWorkload(name string, seed int64, seconds int) (workload, error) {
	switch name {
	case "solve-cold":
		return newSolveCold(seed, coldSize{n: 10000}), nil
	case "orient-mixed":
		return newOrientMixed(seed, seconds, mixedSize{n: 1000, pool: 256, cacheEntries: 160, rate: 200}), nil
	case "churn-fleet":
		// 5 families × 4 budgets × 8 = 160 instances, under antennad's
		// fixed cap of 256 live instances.
		return newChurn(seed, churnFleetSize(1000, 8)), nil
	case "churn-large":
		// Each instance keeps 32 revisions of its full artifact, so
		// antennad's resident set grows with n: 0.8GB at n=30000.
		return newChurn(seed, churnLargeSize(20000)), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}
