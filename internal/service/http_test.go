package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/instance"
	"repro/internal/solution"
)

func newTestServer(t *testing.T) (*Engine, *httptest.Server) {
	t.Helper()
	eng := NewEngine(Options{})
	ts := httptest.NewServer(NewServer(eng).Handler())
	t.Cleanup(ts.Close)
	return eng, ts
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestOrientEndToEnd is the service-layer acceptance test: the /orient
// response must be byte-identical to the artifact the in-process engine
// path encodes for the same request, and a repeated request must be a
// cache hit with an identical body.
func TestOrientEndToEnd(t *testing.T) {
	eng, ts := newTestServer(t)
	body := `{"gen":{"workload":"uniform","n":200,"seed":7},"k":2,"phi":0,"algo":"tworay"}`

	resp, got := post(t, ts.URL+"/orient", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if h := resp.Header.Get("X-Cache"); h != "miss" {
		t.Fatalf("first request X-Cache %q, want miss", h)
	}

	// The in-process path: same points, same budget, same algorithm —
	// decoupled from HTTP via a second engine so nothing is shared but
	// the deterministic pipeline.
	pts := workloadPts("uniform", 200, 7)
	inproc := NewEngine(Options{})
	sol, _, err := inproc.Solve(context.Background(), Request{Pts: pts, K: 2, Phi: 0, Algo: "tworay"})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := sol.EncodeJSON()
	if !bytes.Equal(got, want) {
		t.Fatalf("HTTP artifact differs from in-process artifact:\n http %s\n proc %s", got, want)
	}

	// Repeat: served from the memory tier, byte-identical.
	resp2, got2 := post(t, ts.URL+"/orient", body)
	if h := resp2.Header.Get("X-Cache"); h != "memory" {
		t.Fatalf("repeated request X-Cache %q, want memory", h)
	}
	if !bytes.Equal(got, got2) {
		t.Fatal("cached response differs from first response")
	}
	if hits, _ := eng.Cache().Stats(); hits != 1 {
		t.Fatalf("cache hits %d, want 1", hits)
	}
}

// TestOrientGenMatchesPoints: shipping the generated coordinates
// explicitly must produce the same artifact as asking the server to
// generate them.
func TestOrientGenMatchesPoints(t *testing.T) {
	_, ts := newTestServer(t)
	pts := workloadPts("uniform", 80, 11)
	var sb strings.Builder
	sb.WriteString(`{"points":[`)
	for i, p := range pts {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"x":%s,"y":%s}`, jsonFloat(p.X), jsonFloat(p.Y))
	}
	sb.WriteString(`],"k":2,"phi":0,"algo":"tworay"}`)

	_, fromPoints := post(t, ts.URL+"/orient", sb.String())
	_, fromGen := post(t, ts.URL+"/orient", `{"gen":{"workload":"uniform","n":80,"seed":11},"k":2,"phi":0,"algo":"tworay"}`)
	if !bytes.Equal(fromPoints, fromGen) {
		t.Fatalf("points body and gen body produced different artifacts:\n pts %s\n gen %s", fromPoints, fromGen)
	}
}

// jsonFloat renders a float with full round-trip precision.
func jsonFloat(v float64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestOrientBinaryFormat: the binary response must decode into the same
// artifact the JSON response describes.
func TestOrientBinaryFormat(t *testing.T) {
	_, ts := newTestServer(t)
	_, jsonBody := post(t, ts.URL+"/orient", `{"gen":{"workload":"uniform","n":60,"seed":3},"k":3,"phi":0,"algo":"table1"}`)
	resp, binBody := post(t, ts.URL+"/orient", `{"gen":{"workload":"uniform","n":60,"seed":3},"k":3,"phi":0,"algo":"table1","format":"binary"}`)
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("binary content type %q", ct)
	}
	sol, err := solution.DecodeBinary(binBody)
	if err != nil {
		t.Fatal(err)
	}
	rejson, _ := sol.EncodeJSON()
	if !bytes.Equal(rejson, jsonBody) {
		t.Fatal("binary artifact decodes to a different solution than the JSON response")
	}
}

// TestPlanEndpoint: /plan must surface the planner's decision, including
// the tworay-over-tour requirement at (k=2, φ=0).
func TestPlanEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := post(t, ts.URL+"/plan", `{"k":2,"phi":0,"objective":{"conn":"strong","minimize":"stretch"}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var d planResponse
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if d.Winner != "tworay" {
		t.Fatalf("/plan winner %q, want tworay", d.Winner)
	}
	if len(d.Shortlist) == 0 || d.Shortlist[0].Name != "tworay" {
		t.Fatalf("shortlist %v, want tworay ranked first", d.Shortlist)
	}

	resp, body = post(t, ts.URL+"/plan", `{"k":1,"phi":0.5,"objective":{"conn":"symmetric"}}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("infeasible plan status %d: %s", resp.StatusCode, body)
	}
}

// TestAlgosHealthzMetrics: the operational endpoints respond and the
// algos listing is sorted.
func TestAlgosHealthzMetrics(t *testing.T) {
	_, ts := newTestServer(t)

	resp, err := http.Get(ts.URL + "/algos")
	if err != nil {
		t.Fatal(err)
	}
	var algos []AlgoInfo
	if err := json.NewDecoder(resp.Body).Decode(&algos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(algos) < 6 {
		t.Fatalf("only %d algos listed", len(algos))
	}
	for i := 1; i < len(algos); i++ {
		if algos[i-1].Name >= algos[i].Name {
			t.Fatalf("algos not sorted: %q before %q", algos[i-1].Name, algos[i].Name)
		}
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ok, _ := health["ok"].(bool); !ok {
		t.Fatalf("healthz not ok: %v", health)
	}

	// Generate one solve so the counters move, then scrape.
	post(t, ts.URL+"/orient", `{"gen":{"workload":"uniform","n":30,"seed":1},"k":2,"phi":3.141592653589793}`)
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"antennad_requests_total 1", "antennad_cache_misses_total 1", "antennad_cache_entries 1"} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestOrientBadRequests: malformed bodies must 4xx with a JSON error.
func TestOrientBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	cases := map[string]string{
		"both algo and objective": `{"gen":{"workload":"uniform","n":10,"seed":1},"k":2,"phi":0,"algo":"tour","objective":{"conn":"strong"}}`,
		"both points and gen":     `{"points":[{"x":0,"y":0}],"gen":{"workload":"uniform","n":10,"seed":1},"k":2,"phi":0}`,
		"bad conn":                `{"gen":{"workload":"uniform","n":10,"seed":1},"k":2,"phi":0,"objective":{"conn":"psychic"}}`,
		"bad format":              `{"gen":{"workload":"uniform","n":10,"seed":1},"k":2,"phi":0,"format":"xml"}`,
		"unknown field":           `{"gen":{"workload":"uniform","n":10,"seed":1},"k":2,"phi":0,"surprise":true}`,
		"not json":                `pigeons`,
	}
	for name, body := range cases {
		resp, data := post(t, ts.URL+"/orient", body)
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, data)
		}
		var e map[string]string
		if err := json.Unmarshal(data, &e); err != nil || e["error"] == "" {
			t.Fatalf("%s: error body %q", name, data)
		}
	}
	// k=0 is structurally valid JSON but semantically rejected.
	resp, _ := post(t, ts.URL+"/orient", `{"gen":{"workload":"uniform","n":10,"seed":1},"k":0,"phi":0}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("k=0 status %d, want 422", resp.StatusCode)
	}
}

// slowBody is a request body whose reader stalls for delay before it
// reports EOF: a client that trickles its upload.
type slowBody struct {
	r     io.Reader
	delay time.Duration
}

func (b *slowBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err == io.EOF && b.delay > 0 {
		time.Sleep(b.delay)
		b.delay = 0
	}
	return n, err
}

// TestDeadlineCoversBodyRead: the -deadline budget runs from a request's
// arrival, so a body that takes longer than the deadline to arrive
// answers 503 without reaching a solve, on every route that solves.
func TestDeadlineCoversBodyRead(t *testing.T) {
	eng := NewEngine(Options{Deadline: 50 * time.Millisecond})
	srv := NewServer(eng)
	h := srv.Handler()
	if _, err := srv.Instances().Create(context.Background(), "slow", benchLikePoints(10), instance.Budget{K: 2, Phi: 0, Algo: "tworay"}); err != nil {
		t.Fatal(err)
	}
	solves := eng.Metrics().Solves.Load()
	for _, c := range []struct{ method, path, body string }{
		{http.MethodPost, "/orient", string(benchShapedBody(10, 3))},
		{http.MethodPost, "/instances", `{"id":"late","gen":{"workload":"uniform","n":10,"seed":3},"k":2,"phi":0,"algo":"tworay"}`},
		{http.MethodPatch, "/instances/slow", `{"ops":[{"op":"move","index":3,"x":1.5,"y":2.5}]}`},
	} {
		req := httptest.NewRequest(c.method, c.path, &slowBody{r: strings.NewReader(c.body), delay: 100 * time.Millisecond})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
			t.Errorf("%s %s with a body slower than the deadline: status %d (Retry-After %q), want 503",
				c.method, c.path, rec.Code, rec.Header().Get("Retry-After"))
		}
	}
	if n := eng.Metrics().Solves.Load(); n != solves {
		t.Errorf("%d solves ran for requests whose deadline had passed", n-solves)
	}
	if snap, err := srv.Instances().Get("slow", 0); err != nil || snap.Rev != 1 {
		t.Errorf("instance after an expired PATCH: %v, %v; want revision 1", snap, err)
	}
}

// TestUnknownFormatRejectedBeforeSolve: a request for an unknown artifact
// format answers 400 without paying for a solve or filling either tier.
func TestUnknownFormatRejectedBeforeSolve(t *testing.T) {
	eng := NewEngine(Options{Store: openStore(t, t.TempDir())})
	ts := httptest.NewServer(NewServer(eng).Handler())
	defer ts.Close()
	resp, body := post(t, ts.URL+"/orient", `{"gen":{"workload":"uniform","n":40,"seed":2},"k":2,"phi":0,"algo":"tworay","format":"xml"}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `unknown format \"xml\" (json|binary)`) {
		t.Fatalf("status %d: %s, want 400 unknown format", resp.StatusCode, body)
	}
	if n := eng.Metrics().Solves.Load(); n != 0 {
		t.Errorf("%d solves for a request with an unknown format", n)
	}
	if eng.Cache().Len() != 0 || eng.Store().Len() != 0 {
		t.Errorf("unknown format filled the tiers: memory %d, disk %d", eng.Cache().Len(), eng.Store().Len())
	}
}
