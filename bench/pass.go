package main

import (
	"context"
	"fmt"
	"sort"
	"time"
)

// Every pass sets the server up setupReps times from scratch and reports
// the median set-up time (the first set-ups are torn down unused), and
// after the window restarts it restartReps times over the same data.
const (
	setupReps   = 3
	restartReps = 3
)

// passResult is one pass over one workload: the record `compare` and
// `run -repeat` read back.
type passResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	E2E       map[string]float64 `json:"e2e"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Detail    map[string]float64 `json:"detail,omitempty"`
	Classes   []classSummary     `json:"classes"`
}

// classSummary is one operation class of the window: its sample count,
// median, p90 (0 unless the sample supports it), and the highest
// percentile the sample supports.
type classSummary struct {
	Class   string  `json:"class"`
	N       int     `json:"n"`
	P50     float64 `json:"p50_ms"`
	P90     float64 `json:"p90_ms"`
	Highest float64 `json:"highest_supported"`
}

// runPass sets up, drives, audits, crashes and restarts one server, and
// summarizes what it saw. The server is closed on return.
func runPass(ctx context.Context, name string, w workload, srv server, seconds int, traced bool) (*passResult, error) {
	defer srv.close()
	r := newRun(name, w.clients(), traced)
	defer func() {
		if r.poller != nil { // an early return left it running
			r.poller.finish()
		}
	}()

	var setups []float64
	for i := range setupReps {
		last := i == setupReps-1
		r.setPhase("setup", last)
		t0 := time.Now()
		if err := srv.start(ctx, true); err != nil {
			return nil, err
		}
		r.bind(srv.url())
		if last && traced {
			r.poller = startPoller(srv.debugURL(), name+"-")
		}
		w.setup(ctx, r)
		setups = append(setups, time.Since(t0).Seconds())
		if !last {
			if err := srv.crash(); err != nil {
				return nil, err
			}
		}
	}

	var rt0, rt1 runtimeView
	var err error
	if traced {
		if rt0, err = readRuntime(ctx, srv.debugURL()); err != nil {
			return nil, fmt.Errorf("read /debug/runtime: %w", err)
		}
	}
	r.setPhase("window", true)
	t0 := time.Now()
	w.drive(ctx, r, time.Duration(seconds)*time.Second)
	elapsed := time.Since(t0)
	if traced {
		if rt1, err = readRuntime(ctx, srv.debugURL()); err != nil {
			return nil, fmt.Errorf("read /debug/runtime: %w", err)
		}
	}
	r.setPhase("audit", true)
	w.audit(ctx, r)
	var views map[string]traceView
	if traced {
		views = r.poller.finish()
		r.poller = nil
	}

	// Let the interval WAL sync acknowledge everything on disk, then crash.
	if w.config().wal {
		time.Sleep(3 * walSyncInterval)
	}
	if err := srv.crash(); err != nil {
		return nil, err
	}
	rss := srv.peakRSSMB()
	r.setPhase("recover", false)
	var restarts []float64
	for i := range restartReps {
		t0 := time.Now()
		if err := srv.start(ctx, false); err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		restarts = append(restarts, time.Since(t0).Seconds())
		r.bind(srv.url())
		if i == 0 {
			w.recovered(ctx, r)
		}
		if err := srv.crash(); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	win := r.windowSamples()
	lat := latencies(win)
	restartS := median(restarts)
	walRecoverS := 0.0
	if w.config().wal {
		walRecoverS = restartS
	}
	res := &passResult{
		Workload: name, Seconds: seconds, Traced: traced,
		E2E: map[string]float64{
			"p50_ms":    percentile(lat, 0.5),
			"p90_ms":    percentile(lat, 0.9),
			"ops_per_s": float64(len(win)) / elapsed.Seconds(),
			"setup_s":   median(setups),
		},
		Classes: summarizeClasses(win),
		Detail:  details(r, win, views, walRecoverS),
	}
	res.Detail["service.restart_ms.p50"] = restartS * 1000
	res.Detail["runtime.rss_peak_mb"] = rss
	if traced {
		probes, err := runProbes(w.probes())
		r.check("in-process probes", err)
		res.Layers = layers(r, win, views, probes, rt0, rt1)
		res.Layers["service.restart_ms.p50"] = restartS * 1000
		res.Layers["runtime.rss_peak_mb"] = rss
		res.Detail["runtime.gc_pause_p99_ms"] = rt1.GCPauseP99MS
	}
	res.Attempted, res.Failed, res.Failures = r.attempted, r.failed, r.failures
	return res, nil
}

// classOf names a sample's class for the summaries: /orient answers of
// the mixed workload split by the tier that served them.
func classOf(s sample) string {
	if s.class != "orient" {
		return s.class
	}
	if s.cache == "memory" || s.cache == "disk" {
		return "hit"
	}
	return "solve"
}

func summarizeClasses(win []sample) []classSummary {
	byClass := map[string][]float64{}
	for _, s := range win {
		c := classOf(s)
		byClass[c] = append(byClass[c], s.latMS)
	}
	var out []classSummary
	for c, vs := range byClass {
		cs := classSummary{Class: c, N: len(vs), P50: percentile(vs, 0.5), Highest: highestSupported(len(vs))}
		if supported(len(vs), 0.9) {
			cs.P90 = percentile(vs, 0.9)
		}
		out = append(out, cs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}
