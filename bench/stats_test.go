package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{19, 0.5, false}, {20, 0.5, true},
		{99, 0.9, false}, {100, 0.9, true},
		{999, 0.99, false}, {1000, 0.99, true},
		{0, 0.5, false},
	} {
		if got := supported(tc.n, tc.q); got != tc.want {
			t.Errorf("supported(%d, %v) = %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
	for n, want := range map[int]float64{10: 0, 20: 0.5, 150: 0.9, 1000: 0.99, 10000: 0.999} {
		if got := highestSupported(n); got != want {
			t.Errorf("highestSupported(%d) = %v, want %v", n, got, want)
		}
	}
	vs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	if got := percentile(vs, 0.5); got != 5 {
		t.Errorf("nearest-rank median = %v, want 5", got)
	}
	if got := percentile(vs, 0.9); got != 9 {
		t.Errorf("nearest-rank p90 = %v, want 9", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, m, q3 := quartiles(vs); q1 != 2.75 || m != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, m, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, m, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || m != 2 || q3 != 4 {
		t.Errorf("quartiles of 3 = %v %v %v, want 1 2 4", q1, m, q3)
	}
}

func TestParseServerTiming(t *testing.T) {
	got, err := parseServerTiming("cache;dur=0.004, plan;dur=0.001, orient;dur=7.831, other;dur=0.837, total;dur=8.673")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"cache": 0.004, "plan": 0.001, "orient": 7.831, "other": 0.837, "total": 8.673}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	for _, bad := range []string{"", "orient", "orient;dur=x", ";dur=1", "orient;desc=y"} {
		if _, err := parseServerTiming(bad); err == nil {
			t.Errorf("parseServerTiming(%q) accepted", bad)
		}
	}
}

func TestTracePoller(t *testing.T) {
	payload := `{"recent": [
	  {"trace_id": "solve-cold-2", "wall_ms": 9, "spans": [
	    {"name": "plan", "start_ms": 0, "dur_ms": 0.5, "parent": -1},
	    {"name": "orient", "start_ms": 0.5, "dur_ms": 6, "parent": -1},
	    {"name": "emst", "start_ms": 0.5, "dur_ms": 2, "parent": -1, "async": true},
	    {"name": "orient", "start_ms": 7, "dur_ms": 1, "parent": 1}]},
	  {"trace_id": "0123abcd", "wall_ms": 1, "spans": []}],
	 "slow": [{"trace_id": "solve-cold-1", "wall_ms": 50, "spans": []}]}`
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/traces" {
			http.NotFound(w, r)
			return
		}
		_, _ = w.Write([]byte(payload))
	}))
	defer ts.Close()
	p := startPoller(ts.URL, "solve-cold-")
	p.nudge()
	views := p.finish()
	if len(views) != 2 {
		t.Fatalf("collected %d traces, want the 2 with the workload prefix: %v", len(views), views)
	}
	v := views["solve-cold-2"]
	if d, ok := v.span("orient"); !ok || d != 7 {
		t.Errorf("orient spans sum to %v (found %v), want 7 across nesting levels", d, ok)
	}
	if d, ok := v.span("emst"); !ok || d != 2 {
		t.Errorf("async emst = %v, want 2", d)
	}
	if _, ok := v.span("verify"); ok {
		t.Error("found a verify span that is not there")
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	slower := []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}
	noisy := []float64{60, 140, 70, 130, 100, 90, 110, 65, 135, 100}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		better         string
		want           string
	}{
		{"faster latency", parent, faster, "lower", "improved"},
		{"slower latency", parent, slower, "lower", "regressed"},
		{"same", parent, parent, "lower", "unchanged"},
		{"more throughput", parent, slower, "higher", "improved"},
		{"noisy parent", noisy, parent, "lower", "unresolved"},
	} {
		if got, _ := verdict(tc.parent, tc.change, tc.better, 0.1); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	if _, wins := verdict(parent, faster, "lower", 0.1); wins != 1 {
		t.Errorf("wins = %v, want 1", wins)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the metrics and workloads
// the program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (%q), want %q with a one-line why", i, w.Name, w.Why, workloadNames[i])
		}
	}
	if len(spec.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(e2eMetrics))
	}
	maxBound := 0.0
	for i, m := range spec.EndToEnd {
		if m.Name != e2eMetrics[i].name || m.Unit != e2eMetrics[i].unit {
			t.Errorf("end_to_end[%d] = %s (%s), program reports %s (%s)", i, m.Name, m.Unit, e2eMetrics[i].name, e2eMetrics[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), program reports %s (%s)", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}
