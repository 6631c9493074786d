package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// timingPhases parses a Server-Timing header into name → milliseconds.
func timingPhases(t *testing.T, header string) map[string]float64 {
	t.Helper()
	if header == "" {
		t.Fatal("empty Server-Timing header")
	}
	out := make(map[string]float64)
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		name, durStr, ok := strings.Cut(part, ";dur=")
		if !ok {
			t.Fatalf("bad Server-Timing entry %q in %q", part, header)
		}
		ms, err := strconv.ParseFloat(durStr, 64)
		if err != nil {
			t.Fatalf("bad duration in %q: %v", part, err)
		}
		out[name] = ms
	}
	return out
}

// assertPhasesSumToTotal enforces the acceptance criterion: the phase
// durations (including the synthesized "other") must sum to within 10%
// of the reported wall time.
func assertPhasesSumToTotal(t *testing.T, header string) map[string]float64 {
	t.Helper()
	ph := timingPhases(t, header)
	total, ok := ph["total"]
	if !ok {
		t.Fatalf("Server-Timing %q has no total", header)
	}
	if _, ok := ph["other"]; !ok {
		t.Fatalf("Server-Timing %q has no other bucket", header)
	}
	var sum float64
	for name, ms := range ph {
		if name != "total" {
			sum += ms
		}
	}
	// Rounding leaves at most 0.5µs per phase; 10% of total plus a
	// microsecond floor keeps near-zero-wall requests meaningful.
	slack := total*0.10 + 0.001*float64(len(ph))
	if diff := sum - total; diff > slack || diff < -slack {
		t.Fatalf("phases sum to %.3fms, total %.3fms (off by more than 10%%): %q", sum, total, header)
	}
	return ph
}

func isHexID(s string) bool {
	if len(s) != 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// spanCount fetches /debug/traces and counts the spans named name on the
// recorded trace id.
func spanCount(t *testing.T, base, id, name string) int {
	t.Helper()
	resp, err := http.Get(base + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.RingSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("/debug/traces payload: %v", err)
	}
	for _, tv := range snap.Recent {
		if tv.TraceID != id {
			continue
		}
		n := 0
		for _, sp := range tv.Spans {
			if sp.Name == name {
				n++
			}
		}
		return n
	}
	t.Fatalf("trace %s not in /debug/traces", id)
	return 0
}

// TestOrientTracingHeaders: every /orient response carries X-Trace-Id
// (minted, or the sanitized inbound value) and a Server-Timing header
// whose phases account for the wall time. A miss builds the EMST exactly
// once, as its own top-level phase; a hit builds none.
func TestOrientTracingHeaders(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"gen":{"workload":"uniform","n":200,"seed":21},"k":2,"phi":0,"algo":"tworay"}`

	resp, _ := post(t, ts.URL+"/orient", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Trace-Id")
	if !isHexID(id) {
		t.Fatalf("minted X-Trace-Id %q is not 16 hex digits", id)
	}
	ph := assertPhasesSumToTotal(t, resp.Header.Get("Server-Timing"))
	// A miss runs the solve pipeline; its phases must be visible, and so
	// must reading the request and writing the artifact.
	for _, phase := range []string{"decode", "plan", "emst", "orient", "encode"} {
		if _, ok := ph[phase]; !ok {
			t.Errorf("miss Server-Timing lacks %q phase: %v", phase, ph)
		}
	}
	if n := spanCount(t, ts.URL, id, "emst"); n != 1 {
		t.Errorf("miss trace holds %d emst spans, want 1", n)
	}

	// An inbound trace ID is honored end to end.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/orient", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Trace-Id", "upstream-trace.42")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Trace-Id"); got != "upstream-trace.42" {
		t.Fatalf("inbound trace ID not echoed: got %q", got)
	}
	if resp2.Header.Get("X-Cache") != "memory" {
		t.Fatalf("second request not a hit: %q", resp2.Header.Get("X-Cache"))
	}
	hp := assertPhasesSumToTotal(t, resp2.Header.Get("Server-Timing"))
	for _, phase := range []string{"decode", "cache", "encode"} {
		if _, ok := hp[phase]; !ok {
			t.Errorf("hit Server-Timing lacks %q phase: %v", phase, hp)
		}
	}
	if _, ok := hp["emst"]; ok {
		t.Errorf("memory hit Server-Timing has an emst phase: %v", hp)
	}

	// A garbage inbound ID is replaced, not reflected (header injection).
	req3, _ := http.NewRequest(http.MethodPost, ts.URL+"/orient", strings.NewReader(body))
	req3.Header.Set("Content-Type", "application/json")
	req3.Header.Set("X-Trace-Id", "bad id; with junk")
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if got := resp3.Header.Get("X-Trace-Id"); !isHexID(got) {
		t.Fatalf("unsanitized inbound trace ID came back: %q", got)
	}
}

// TestInstanceTracingHeaders: instance mutations (create and PATCH, the
// repair path) carry the same tracing surface as /orient.
func TestInstanceTracingHeaders(t *testing.T) {
	eng := NewEngine(Options{})
	h := NewServer(eng).Handler()

	phi := fmt.Sprintf("%.15f", core.Phi2Full)
	rec, _ := doJSON(t, h, "POST", "/instances",
		`{"id":"tr","gen":{"workload":"uniform","n":300,"seed":3},"k":2,"phi":`+phi+`,"algo":"cover"}`, nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	if id := rec.Header().Get("X-Trace-Id"); !isHexID(id) {
		t.Fatalf("create X-Trace-Id %q", id)
	}
	cp := assertPhasesSumToTotal(t, rec.Header().Get("Server-Timing"))
	if _, ok := cp["solve"]; !ok {
		t.Errorf("create Server-Timing lacks solve phase: %v", cp)
	}

	rec, _ = doJSON(t, h, "PATCH", "/instances/tr",
		`{"ops":[{"op":"move","index":5,"x":3.25,"y":4.5}]}`, map[string]string{"X-Trace-Id": "patch-trace-1"})
	if rec.Code != http.StatusOK {
		t.Fatalf("patch: %d %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Trace-Id"); got != "patch-trace-1" {
		t.Fatalf("patch X-Trace-Id %q, want patch-trace-1", got)
	}
	pp := assertPhasesSumToTotal(t, rec.Header().Get("Server-Timing"))
	_, hasRepair := pp["repair"]
	_, hasSolve := pp["solve"]
	if !hasRepair && !hasSolve {
		t.Errorf("patch Server-Timing shows neither repair nor solve: %v", pp)
	}
}

// TestDebugTracesEndpoint: the serving mux exposes the bounded trace
// ring at /debug/traces, and recorded traces carry their spans and
// annotations.
func TestDebugTracesEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/orient",
		strings.NewReader(`{"gen":{"workload":"uniform","n":150,"seed":9},"k":2,"phi":0,"algo":"tworay"}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Trace-Id", "ring-probe")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// The middleware records the trace in a deferred call, and the body
	// reaches EOF only after the handler has returned: drain it so the
	// ring read below cannot overtake the Record.
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	dresp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces status %d", dresp.StatusCode)
	}
	var snap obs.RingSnapshot
	if err := json.NewDecoder(dresp.Body).Decode(&snap); err != nil {
		t.Fatalf("/debug/traces payload: %v", err)
	}
	var probe *obs.TraceView
	for i := range snap.Recent {
		if snap.Recent[i].TraceID == "ring-probe" {
			probe = &snap.Recent[i]
			break
		}
	}
	if probe == nil {
		t.Fatalf("ring-probe trace not in /debug/traces recents (%d recents)", len(snap.Recent))
	}
	if len(probe.Spans) == 0 {
		t.Fatal("recorded trace has no spans")
	}
	var hasRoute, hasCache bool
	for _, a := range probe.Attrs {
		hasRoute = hasRoute || a.Key == "route"
		hasCache = hasCache || a.Key == "cache"
	}
	if !hasRoute || !hasCache {
		t.Fatalf("trace attrs missing route/cache: %+v", probe.Attrs)
	}
}

// TestMetricsExpositionLint: a full /metrics scrape after mixed traffic
// must be well-formed Prometheus exposition — every family with HELP and
// TYPE, no duplicates, coherent histograms.
func TestMetricsExpositionLint(t *testing.T) {
	eng := NewEngine(Options{})
	h := NewServer(eng).Handler()

	orient := `{"gen":{"workload":"uniform","n":150,"seed":5},"k":2,"phi":0,"algo":"tworay"}`
	for i := 0; i < 2; i++ { // miss then hit: both latency histograms observe
		if rec, _ := doJSON(t, h, "POST", "/orient", orient, nil); rec.Code != 200 {
			t.Fatalf("orient: %d %s", rec.Code, rec.Body)
		}
	}
	if rec, _ := doJSON(t, h, "POST", "/instances",
		`{"id":"m","gen":{"workload":"uniform","n":150,"seed":6},"k":2,"phi":0,"algo":"tworay"}`, nil); rec.Code != 201 {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	if rec, _ := doJSON(t, h, "PATCH", "/instances/m",
		`{"ops":[{"op":"add","x":6,"y":6}]}`, nil); rec.Code != 200 {
		t.Fatalf("patch: %d %s", rec.Code, rec.Body)
	}

	rec, _ := doJSON(t, h, "GET", "/metrics", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	body := rec.Body.String()
	if err := obs.LintPrometheus(strings.NewReader(body)); err != nil {
		t.Fatalf("/metrics fails exposition lint: %v", err)
	}
	fams, _, err := obs.ParsePrometheus(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"antennad_solve_seconds",
		"antennad_hit_seconds",
		"antennad_solve_points",
		"antennad_instance_churn_seconds",
		"antennad_instance_repair_seconds",
		"antennad_instance_wal_sync_seconds",
		"antennad_instance_dirty_fraction",
	} {
		f, ok := fams[name]
		if !ok {
			t.Errorf("/metrics lacks histogram family %s", name)
			continue
		}
		if f.Type != "histogram" {
			t.Errorf("family %s has TYPE %q, want histogram", name, f.Type)
		}
	}
	// The latency histograms actually observed this traffic.
	for _, name := range []string{"antennad_solve_seconds", "antennad_hit_seconds", "antennad_instance_churn_seconds"} {
		snap, err := obs.SnapshotFromFamily(fams[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if snap.Count == 0 {
			t.Errorf("%s observed nothing after traffic", name)
		}
	}
}

// TestDebugHandlerIsolation: pprof and runtime snapshots live only on
// the DebugHandler mux (served via -debug-addr), never on the traffic
// port.
func TestDebugHandlerIsolation(t *testing.T) {
	eng := NewEngine(Options{})
	srv := NewServer(eng)

	serving := httptest.NewServer(srv.Handler())
	defer serving.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/runtime"} {
		resp, err := http.Get(serving.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("serving mux answers %s with %d, want 404", path, resp.StatusCode)
		}
	}

	debug := httptest.NewServer(srv.DebugHandler())
	defer debug.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/traces"} {
		resp, err := http.Get(debug.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("debug mux answers %s with %d, want 200", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(debug.URL + "/debug/runtime")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("/debug/runtime payload: %v", err)
	}
	if len(snap) == 0 {
		t.Fatal("/debug/runtime snapshot is empty")
	}
}

// TestTracingOverheadBudget bounds the cost tracing adds to the solve
// path. Benchmarks run without a trace on the context, where a span site
// degrades to one context lookup; traced requests pay a mutex-guarded
// append. Either way, a generous per-request span-site count times the
// measured per-span cost must stay under 2% of a real miss solve.
func TestTracingOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive overhead budget")
	}
	const spanSites = 64 // far above the ~10 sites a request actually crosses

	perSpan := func(ctx context.Context) time.Duration {
		best := time.Duration(1 << 62)
		for rep := 0; rep < 5; rep++ {
			const iters = 20000
			t0 := time.Now()
			for i := 0; i < iters; i++ {
				_, end := obs.StartSpan(ctx, "phase")
				end()
			}
			if d := time.Since(t0) / iters; d < best {
				best = d
			}
		}
		return best
	}
	untraced := perSpan(context.Background())
	traced := perSpan(obs.WithTrace(context.Background(), obs.NewTrace("bench")))

	eng := NewEngine(Options{})
	solve := time.Duration(1 << 62)
	for seed := int64(0); seed < 2; seed++ { // distinct keys: both are misses
		req := Request{Pts: workloadPts("uniform", 2000, 17+seed), K: 2, Phi: 0, Algo: "tworay"}
		t0 := time.Now()
		if _, _, err := eng.Solve(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0); d < solve {
			solve = d
		}
	}

	for _, c := range []struct {
		name string
		cost time.Duration
	}{{"untraced", untraced}, {"traced", traced}} {
		overhead := c.cost * spanSites
		if float64(overhead) > 0.02*float64(solve) {
			t.Errorf("%s span overhead %v × %d sites = %v exceeds 2%% of a %v miss solve",
				c.name, c.cost, spanSites, overhead, solve)
		}
	}
	t.Logf("per-span: untraced %v, traced %v; miss solve %v", untraced, traced, solve)
}

// TestMetricsReferenceMatchesScrape: the "/metrics reference" table in
// docs/OPERATIONS.md names exactly the families a full server exports
// (engine, disk store, and live-instance tiers; labels like {class=…}
// stripped), so a family shipped without a row, or a row left behind by
// a removed family, fails here instead of lingering.
func TestMetricsReferenceMatchesScrape(t *testing.T) {
	eng := NewEngine(Options{Store: openStore(t, t.TempDir())})
	h := NewServer(eng).Handler()
	phi := fmt.Sprintf("%.15f", core.Phi2Full)
	if rec, _ := doJSON(t, h, "POST", "/instances",
		`{"id":"ref","gen":{"workload":"uniform","n":200,"seed":8},"k":2,"phi":`+phi+`,"algo":"cover"}`, nil); rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	if rec, _ := doJSON(t, h, "PATCH", "/instances/ref",
		`{"ops":[{"op":"move","index":5,"x":3.25,"y":4.5}]}`, nil); rec.Code != http.StatusOK {
		t.Fatalf("patch: %d %s", rec.Code, rec.Body)
	}
	rec, _ := doJSON(t, h, "GET", "/metrics", "", nil)
	scraped, _, err := obs.ParsePrometheus(strings.NewReader(rec.Body.String()))
	if err != nil {
		t.Fatal(err)
	}

	doc, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "\n## /metrics reference\n")
	if !ok {
		t.Fatal("docs/OPERATIONS.md has no \"## /metrics reference\" section")
	}
	table, _, _ = strings.Cut(table, "\n## ")
	documented := make(map[string]bool)
	for _, line := range strings.Split(table, "\n") {
		name, ok := strings.CutPrefix(line, "| `antennad_")
		if !ok {
			continue
		}
		name, _, _ = strings.Cut(name, "`")
		name, _, _ = strings.Cut(name, "{")
		documented["antennad_"+name] = true
	}

	for name := range scraped {
		if !documented[name] {
			t.Errorf("/metrics exports %s, which has no row in the docs/OPERATIONS.md reference", name)
		}
	}
	for name := range documented {
		if _, ok := scraped[name]; !ok {
			t.Errorf("docs/OPERATIONS.md documents %s, which /metrics does not export", name)
		}
	}
}

// TestMetricsCardinalityFlatInInstances: /metrics renders the same
// families, in the same order and the same number of lines, with one
// live instance as with eight, and carries no instance label —
// per-instance detail is served by GET /instances.
func TestMetricsCardinalityFlatInInstances(t *testing.T) {
	h := NewServer(NewEngine(Options{})).Handler()
	live := 0
	scrape := func(want int) ([]string, int) {
		t.Helper()
		for ; live < want; live++ {
			body := fmt.Sprintf(`{"id":"c%d","gen":{"workload":"uniform","n":40,"seed":%d},"k":2,"phi":0,"algo":"tworay"}`, live, live+1)
			if rec, _ := doJSON(t, h, "POST", "/instances", body, nil); rec.Code != http.StatusCreated {
				t.Fatalf("create %d: %d %s", live, rec.Code, rec.Body)
			}
		}
		rec, _ := doJSON(t, h, "GET", "/metrics", "", nil)
		body := rec.Body.String()
		if strings.Contains(body, `instance="`) {
			t.Errorf("/metrics with %d live instances carries an instance label", want)
		}
		if !strings.Contains(body, fmt.Sprintf("\nantennad_instances %d\n", want)) {
			t.Errorf("/metrics does not report %d live instances", want)
		}
		_, order, err := obs.ParsePrometheus(strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return order, strings.Count(body, "\n")
	}
	oneFams, oneLines := scrape(1)
	eightFams, eightLines := scrape(8)
	if strings.Join(oneFams, " ") != strings.Join(eightFams, " ") {
		t.Errorf("family set changed with the instance count:\n1: %v\n8: %v", oneFams, eightFams)
	}
	if oneLines != eightLines {
		t.Errorf("/metrics grew from %d lines (1 instance) to %d (8 instances)", oneLines, eightLines)
	}
}
