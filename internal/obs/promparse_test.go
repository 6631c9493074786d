package obs

import (
	"bytes"
	"strings"
	"testing"
)

const validExposition = `# HELP antennad_requests_total Requests served.
# TYPE antennad_requests_total counter
antennad_requests_total{route="/orient"} 12
antennad_requests_total{route="/instances"} 3
# HELP antennad_up Whether the service is up.
# TYPE antennad_up gauge
antennad_up 1
# HELP antennad_solve_seconds Solve latency.
# TYPE antennad_solve_seconds histogram
antennad_solve_seconds_bucket{le="0.001"} 1
antennad_solve_seconds_bucket{le="0.01"} 3
antennad_solve_seconds_bucket{le="+Inf"} 4
antennad_solve_seconds_sum 0.62
antennad_solve_seconds_count 4
`

func TestParsePrometheusValid(t *testing.T) {
	fams, order, err := ParsePrometheus(strings.NewReader(validExposition))
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 {
		t.Fatalf("got %d families (%v), want 3", len(order), order)
	}
	f := fams["antennad_requests_total"]
	if f == nil || f.Type != "counter" || len(f.Samples) != 2 {
		t.Fatalf("requests family parsed wrong: %+v", f)
	}
	if f.Samples[0].Labels["route"] != "/orient" || f.Samples[0].Value != 12 {
		t.Fatalf("sample parsed wrong: %+v", f.Samples[0])
	}
	h := fams["antennad_solve_seconds"]
	if h == nil || h.Type != "histogram" || len(h.Samples) != 5 {
		t.Fatalf("histogram family did not absorb _bucket/_sum/_count: %+v", h)
	}
	if err := LintPrometheus(strings.NewReader(validExposition)); err != nil {
		t.Fatalf("valid exposition fails lint: %v", err)
	}
}

func TestLintViolations(t *testing.T) {
	cases := []struct {
		name, body, wantErr string
	}{
		{
			"missing HELP",
			"# TYPE x counter\nx 1\n",
			"missing HELP",
		},
		{
			"missing TYPE",
			"# HELP x a counter\nx 1\n",
			"missing TYPE",
		},
		{
			"no samples",
			"# HELP x a counter\n# TYPE x counter\n",
			"no samples",
		},
		{
			"duplicate sample",
			"# HELP x a counter\n# TYPE x counter\nx{a=\"1\"} 1\nx{a=\"1\"} 2\n",
			"duplicate sample",
		},
		{
			"non-cumulative buckets",
			"# HELP h l\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
			"not cumulative",
		},
		{
			"non-ascending bounds",
			"# HELP h l\n# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
			"not ascending",
		},
		{
			"missing +Inf",
			"# HELP h l\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
			"missing +Inf",
		},
		{
			"+Inf disagrees with count",
			"# HELP h l\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
			"!= _count",
		},
		{
			"missing sum",
			"# HELP h l\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
			"missing _sum or _count",
		},
	}
	for _, c := range cases {
		err := LintPrometheus(strings.NewReader(c.body))
		if err == nil {
			t.Errorf("%s: lint passed, want error containing %q", c.name, c.wantErr)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: lint error %q does not mention %q", c.name, err, c.wantErr)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, body string }{
		{"duplicate TYPE", "# TYPE x counter\n# TYPE x gauge\nx 1\n"},
		{"duplicate HELP", "# HELP x a\n# HELP x b\nx 1\n"},
		{"TYPE after samples", "# HELP x a\nx 1\n# TYPE x counter\n"},
		{"invalid TYPE", "# TYPE x histogrm\nx 1\n"},
		{"bad value", "x one\n"},
		{"unterminated labels", "x{a=\"1\" 1\n"},
		{"unquoted label", "x{a=1} 1\n"},
	}
	for _, c := range cases {
		if _, _, err := ParsePrometheus(strings.NewReader(c.body)); err == nil {
			t.Errorf("%s: parse accepted %q", c.name, c.body)
		}
	}
}

// TestSnapshotRoundTrip: rendering a histogram and re-ingesting the
// scrape must reproduce the snapshot — how a /metrics scrape is read
// back into quantiles.
func TestSnapshotRoundTrip(t *testing.T) {
	var r Registry
	h := r.Histogram("rt_seconds", "round trip", LatencyBuckets())
	for _, d := range []float64{0.0004, 0.002, 0.002, 0.07, 3, 42} {
		h.Observe(d)
	}
	want := h.Snapshot()

	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	fams, _, err := ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := SnapshotFromFamily(fams["rt_seconds"])
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != want.Count || got.Sum != want.Sum {
		t.Fatalf("round trip count/sum %d/%g, want %d/%g", got.Count, got.Sum, want.Count, want.Sum)
	}
	if len(got.Bounds) != len(want.Bounds) || len(got.Counts) != len(want.Counts) {
		t.Fatalf("round trip shape %d/%d bounds, %d/%d counts",
			len(got.Bounds), len(want.Bounds), len(got.Counts), len(want.Counts))
	}
	for i := range want.Counts {
		if got.Counts[i] != want.Counts[i] {
			t.Fatalf("bucket %d: %d != %d", i, got.Counts[i], want.Counts[i])
		}
	}
	// Quantiles agree too (they only see bounds+counts).
	if got.Quantile(0.5) != want.Quantile(0.5) {
		t.Fatalf("p50 %g != %g", got.Quantile(0.5), want.Quantile(0.5))
	}
}
