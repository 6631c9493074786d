package main

// metricDef is one reported metric. The lists below are the ones
// BENCHMARK.json declares; a test holds the two in step.
type metricDef struct {
	name, unit string
}

// e2eMetrics are what a user of antennad sees, reported by every
// untraced pass of every workload. Restart time and peak memory are seen
// too, but read too unsteadily on a shared box to carry a bound (a bare
// restart takes ~4ms; peak RSS jumps with GC timing), so they are
// per-layer metrics.
var e2eMetrics = []metricDef{
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"setup_s", "s"},
}

// layerMetrics are the per-layer numbers of a traced pass. Every one is
// reported on every workload: times come from layers all four workloads
// exercise, and the layers only some workloads reach (the instance tier,
// the disk tier) are reported as shares and fractions, which read 0 where
// the layer is idle. Their absolute times are in the pass record's
// detail map.
var layerMetrics = []metricDef{
	// In-process probes on a sample of the workload's own inputs.
	{"delaunay.build_ms.p50", "ms"},
	{"mst.emst_ms.p50", "ms"},
	{"core.orient_ms.p50", "ms"},
	{"core.sectors_ms.p50", "ms"},
	{"verify.check_ms.p50", "ms"},
	{"solution.digest_ms.p50", "ms"},
	{"solution.encode_ms.p50", "ms"},
	// Engine solve phases from /debug/traces, over every solve of the
	// final server (set-up included: that is where the churn
	// workloads solve).
	{"mst.prefetch_ms.p50", "ms"},
	{"plan.plan_ms.p50", "ms"},
	{"service.orient_ms.p50", "ms"},
	{"service.orient_wait_ms.p50", "ms"},
	{"verify.span_ms.p50", "ms"},
	{"solution.fill_ms.p50", "ms"},
	{"solution.cache_ms.p50", "ms"},
	// Request handling outside the spans, from Server-Timing.
	{"service.other_ms.p50", "ms"},
	{"service.other_share.hit", "frac"},
	// Artifact tiers, from X-Cache and response sizes.
	{"solution.mem_hit_frac", "frac"},
	{"solution.disk_hit_frac", "frac"},
	{"solution.miss_frac", "frac"},
	{"solution.store_share.hit", "frac"},
	{"solution.artifact_kb.p50", "kB"},
	// Live instances: PATCH time by phase, and repair outcomes.
	{"instance.incremental_frac", "frac"},
	{"instance.conflict_frac", "frac"},
	{"instance.fallback_frac", "frac"},
	{"instance.repair_share", "frac"},
	{"instance.splice_share", "frac"},
	{"instance.verify_inc_share", "frac"},
	{"instance.repair_self_share", "frac"},
	{"instance.fallback_wasted_share", "frac"},
	{"instance.solve_share", "frac"},
	{"instance.wal_share", "frac"},
	{"instance.repair_over_full.p90", "x"},
	{"instance.delta_bytes.p50", "bytes"},
	// The antennad process: restart over the old data (WAL replay,
	// store reopen) until healthz answers, and its peak resident set.
	{"service.restart_ms.p50", "ms"},
	{"runtime.rss_peak_mb", "MB"},
	// Go runtime of antennad over the window, from /debug/runtime.
	{"runtime.gc_cycles", "count"},
	{"runtime.alloc_mb_per_op", "MB"},
	// Validity of the run itself.
	{"bench.client_overhead_ms.p50", "ms"},
	{"bench.gen_late_ms.p90", "ms"},
	{"bench.trace_coverage", "frac"},
	{"bench.trace_overhead.p50_ms", "frac"},
	{"bench.trace_overhead.p90_ms", "frac"},
	{"bench.trace_overhead.ops_per_s", "frac"},
	{"bench.trace_overhead.setup_s", "frac"},
}

// spanSamples collects, over the given samples that have a trace, the
// summed duration of the named span.
func spanSamples(ss []sample, views map[string]traceView, name string) []float64 {
	var out []float64
	for _, s := range ss {
		if v, ok := views[s.traceID]; ok {
			if d, ok := v.span(name); ok {
				out = append(out, d)
			}
		}
	}
	return out
}

// filter keeps the samples of one class, as classOf names it.
func filter(ss []sample, class string) []sample {
	var out []sample
	for _, s := range ss {
		if classOf(s) == class {
			out = append(out, s)
		}
	}
	return out
}

// patchPhases sums, over PATCHes with a trace, the Server-Timing total
// and the named spans.
type patchPhases struct {
	total, repair, splice, verifyInc, solve, wal, wasted float64
	repairable, fallbacks                                int
}

func sumPatchPhases(patches []sample, views map[string]traceView) patchPhases {
	var p patchPhases
	for _, s := range patches {
		v, ok := views[s.traceID]
		if !ok {
			continue
		}
		if s.repairable {
			p.repairable++
		}
		p.total += s.timing["total"]
		repair, hasRepair := v.span("repair")
		solve, hasSolve := v.span("solve")
		splice, _ := v.span("splice")
		vinc, _ := v.span("verify_inc")
		wal, _ := v.span("wal")
		p.repair += repair
		p.splice += splice
		p.verifyInc += vinc
		p.solve += solve
		p.wal += wal
		// Budgets without a repair class open an empty repair span
		// before their full solve; only a repairable instance that
		// still full-solved has fallen back.
		if s.repairable && hasRepair && hasSolve {
			p.fallbacks++
			p.wasted += repair
		}
	}
	return p
}

// layers computes the per-layer metrics of a traced pass.
func layers(r *run, win []sample, views map[string]traceView, probes []probeResult, rt0, rt1 runtimeView) map[string]float64 {
	r.mu.Lock()
	all := append([]sample(nil), r.samples...)
	r.mu.Unlock()
	m := map[string]float64{}

	var del, emst, orient, sectors, check, digest, encode, wait []float64
	for _, p := range probes {
		del = append(del, p.delaunay)
		emst = append(emst, p.emst)
		orient = append(orient, p.orient)
		sectors = append(sectors, p.orient-p.emst)
		check = append(check, p.verify)
		digest = append(digest, p.digest)
		encode = append(encode, p.encode)
		if v, ok := views[p.traceID]; ok {
			if d, ok := v.span("orient"); ok {
				wait = append(wait, d-p.orient)
			}
		}
	}
	m["delaunay.build_ms.p50"] = median(del)
	m["mst.emst_ms.p50"] = median(emst)
	m["core.orient_ms.p50"] = median(orient)
	m["core.sectors_ms.p50"] = median(sectors)
	m["verify.check_ms.p50"] = median(check)
	m["solution.digest_ms.p50"] = median(digest)
	m["solution.encode_ms.p50"] = median(encode)
	m["service.orient_wait_ms.p50"] = median(wait)

	for metric, span := range map[string]string{
		"mst.prefetch_ms.p50":   "emst",
		"plan.plan_ms.p50":      "plan",
		"service.orient_ms.p50": "orient",
		"verify.span_ms.p50":    "verify",
		"solution.fill_ms.p50":  "fill",
		"solution.cache_ms.p50": "cache",
	} {
		m[metric] = median(spanSamples(all, views, span))
	}

	var other, lateness, overhead, artifact, deltas []float64
	var hitOther, hitTotal, diskStore, diskTotal float64
	var mem, disk, miss, covered int
	for _, s := range win {
		other = append(other, s.timing["other"])
		lateness = append(lateness, s.lateMS)
		if total, ok := s.timing["total"]; ok {
			overhead = append(overhead, s.svcMS-total)
		}
		if _, ok := views[s.traceID]; ok {
			covered++
		}
		switch s.cache {
		case "memory":
			mem++
		case "disk":
			disk++
			if d, ok := views[s.traceID].span("store"); ok {
				diskStore += d
				diskTotal += s.timing["total"]
			}
		case "miss":
			miss++
		}
		switch classOf(s) {
		case "hit":
			hitOther += s.timing["other"]
			hitTotal += s.timing["total"]
			artifact = append(artifact, float64(s.size)/1000)
		case "solve", "read":
			artifact = append(artifact, float64(s.size)/1000)
		case "delta":
			deltas = append(deltas, float64(s.size))
		}
	}
	tiered := float64(mem + disk + miss)
	m["service.other_ms.p50"] = median(other)
	m["service.other_share.hit"] = ratio(hitOther, hitTotal)
	m["solution.mem_hit_frac"] = ratio(float64(mem), tiered)
	m["solution.disk_hit_frac"] = ratio(float64(disk), tiered)
	m["solution.miss_frac"] = ratio(float64(miss), tiered)
	m["solution.store_share.hit"] = ratio(diskStore, diskTotal)
	m["solution.artifact_kb.p50"] = median(artifact)
	m["instance.delta_bytes.p50"] = median(deltas)

	patches := filter(win, "patch")
	incremental := 0
	for _, s := range patches {
		if s.repair == "incremental" {
			incremental++
		}
	}
	conflicts := len(filter(win, "conflict"))
	p := sumPatchPhases(patches, views)
	m["instance.incremental_frac"] = ratio(float64(incremental), float64(len(patches)))
	m["instance.conflict_frac"] = ratio(float64(conflicts), float64(len(patches)+conflicts))
	m["instance.fallback_frac"] = ratio(float64(p.fallbacks), float64(p.repairable))
	m["instance.repair_share"] = ratio(p.repair, p.total)
	m["instance.splice_share"] = ratio(p.splice, p.repair)
	m["instance.verify_inc_share"] = ratio(p.verifyInc, p.repair)
	m["instance.repair_self_share"] = ratio(p.repair-p.splice-p.verifyInc, p.repair)
	m["instance.fallback_wasted_share"] = ratio(p.wasted, p.total)
	m["instance.solve_share"] = ratio(p.solve, p.total)
	m["instance.wal_share"] = ratio(p.wal, p.total)
	m["instance.repair_over_full.p90"] = percentile(repairOverFull(all, patches, views), 0.9)

	ops := float64(len(win))
	m["runtime.gc_cycles"] = float64(rt1.GCCycles - rt0.GCCycles)
	m["runtime.alloc_mb_per_op"] = ratio(float64(rt1.TotalAllocBytes-rt0.TotalAllocBytes)/1e6, ops)

	m["bench.client_overhead_ms.p50"] = median(overhead)
	m["bench.gen_late_ms.p90"] = percentile(lateness, 0.9)
	m["bench.trace_coverage"] = ratio(float64(covered), ops)
	return m
}

// repairOverFull divides each incremental PATCH's repair span by the
// full solve that created the same instance.
func repairOverFull(all, patches []sample, views map[string]traceView) []float64 {
	full := map[string]float64{}
	for _, s := range filter(all, "create") {
		if d, ok := views[s.traceID].span("solve"); ok && d > 0 {
			full[s.key] = d
		}
	}
	var out []float64
	for _, s := range patches {
		if s.repair != "incremental" {
			continue
		}
		if d, ok := views[s.traceID].span("repair"); ok && full[s.key] > 0 {
			out = append(out, d/full[s.key])
		}
	}
	return out
}

// details are the absolute numbers behind the shares, for the report
// and `compare`: per-class times of the instance tier, per-family PATCH
// tails, and hit/miss request handling. recoverS is the restart time of a
// write-ahead-logged server, 0 for one that recovers nothing.
func details(r *run, win []sample, views map[string]traceView, recoverS float64) map[string]float64 {
	d := map[string]float64{}
	put := func(name string, vs []float64, q float64) {
		if len(vs) > 0 {
			d[name] = percentile(vs, q)
		}
	}
	patches := filter(win, "patch")
	byFamily := map[string][]float64{}
	for _, s := range patches {
		byFamily[s.group] = append(byFamily[s.group], s.latMS)
	}
	for f, vs := range byFamily {
		put("instance.patch_ms.p90."+f, vs, 0.9)
	}
	put("instance.get_ms.p50", latencies(filter(win, "read")), 0.5)
	put("instance.delta_ms.p50", latencies(filter(win, "delta")), 0.5)

	creates := map[string]bool{}
	r.mu.Lock()
	for _, s := range r.samples {
		if s.class == "create" {
			creates[s.key] = true
		}
	}
	r.mu.Unlock()
	if len(creates) > 0 && recoverS > 0 {
		d["instance.recover_ms_per_instance"] = recoverS * 1000 / float64(len(creates))
	}
	if views == nil {
		return d
	}
	var repaired []sample
	byClass := map[string][]sample{}
	for _, s := range patches {
		if s.repair == "incremental" {
			repaired = append(repaired, s)
			byClass[s.rclass] = append(byClass[s.rclass], s)
		}
	}
	repairs := spanSamples(repaired, views, "repair")
	put("instance.repair_ms.p50", repairs, 0.5)
	put("instance.repair_ms.p90", repairs, 0.9)
	for class, of := range byClass {
		put("instance.repair_ms.p50."+class, spanSamples(of, views, "repair"), 0.5)
	}
	for _, span := range []string{"splice", "verify_inc", "wal"} {
		vs := spanSamples(patches, views, span)
		name := "instance." + span + "_ms"
		put(name+".p50", vs, 0.5)
		put(name+".p90", vs, 0.9)
	}
	put("instance.fullsolve_ms.p50", spanSamples(patches, views, "solve"), 0.5)
	for _, cls := range []string{"hit", "solve"} {
		var other []float64
		for _, s := range filter(win, cls) {
			other = append(other, s.timing["other"])
		}
		put("service.other_ms.p50."+cls, other, 0.5)
	}
	var disk []sample
	for _, s := range win {
		if s.cache == "disk" {
			disk = append(disk, s)
		}
	}
	put("solution.store_ms.p50", spanSamples(disk, views, "store"), 0.5)
	return d
}

func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.latMS
	}
	return out
}
