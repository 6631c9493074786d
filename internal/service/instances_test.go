package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/instance"
	"repro/internal/plan"
	"repro/internal/solution"
)

// doJSON drives one request against the test server and decodes the
// response envelope.
func doJSON(t *testing.T, h http.Handler, method, path, body string, hdr map[string]string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out map[string]any
	if ct := rec.Header().Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
		_ = json.Unmarshal(rec.Body.Bytes(), &out)
	}
	return rec, out
}

// TestInstanceHTTPLifecycle walks the full live-instance surface:
// create, conditional mutation with X-Repair: incremental, revision
// history, the ADLT delta endpoint, stale If-Match 409, the instance
// list, metrics rows, and deletion.
func TestInstanceHTTPLifecycle(t *testing.T) {
	eng := NewEngine(Options{})
	srv := NewServer(eng)
	h := srv.Handler()

	phi := fmt.Sprintf("%.15f", core.Phi2Full)
	rec, env := doJSON(t, h, "POST", "/instances",
		`{"id":"net","gen":{"workload":"uniform","n":300,"seed":3},"k":2,"phi":`+phi+`,"algo":"cover"}`, nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	if env["rev"].(float64) != 1 || env["verified"] != true || env["repair"] != "none" {
		t.Fatalf("create envelope: %v", env)
	}
	if loc := rec.Header().Get("Location"); loc != "/instances/net" {
		t.Fatalf("Location = %q", loc)
	}

	// Conditional mutation: X-Repair must say incremental and the ETag
	// must carry the new revision.
	patch := `{"ops":[{"op":"move","index":5,"x":3.25,"y":4.5},{"op":"add","x":6,"y":6}]}`
	rec, env = doJSON(t, h, "PATCH", "/instances/net", patch, map[string]string{"If-Match": `"1"`})
	if rec.Code != http.StatusOK {
		t.Fatalf("patch: %d %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Repair"); got != "incremental" {
		t.Fatalf("X-Repair = %q, want incremental", got)
	}
	if got := rec.Header().Get("ETag"); got != `"2"` {
		t.Fatalf("ETag = %q", got)
	}
	if env["verified"] != true || env["n"].(float64) != 301 {
		t.Fatalf("patch envelope: %v", env)
	}

	// Stale If-Match answers 409 and leaves the revision alone.
	rec, _ = doJSON(t, h, "PATCH", "/instances/net", patch, map[string]string{"If-Match": `"1"`})
	if rec.Code != http.StatusConflict {
		t.Fatalf("stale If-Match: %d", rec.Code)
	}

	// Current artifact, a historical revision, and the delta between them.
	rec, _ = doJSON(t, h, "GET", "/instances/net", "", nil)
	if rec.Code != 200 || rec.Header().Get("ETag") != `"2"` {
		t.Fatalf("get current: %d etag %q", rec.Code, rec.Header().Get("ETag"))
	}
	cur, err := solution.DecodeJSON(rec.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	rec, _ = doJSON(t, h, "GET", "/instances/net?rev=1", "", nil)
	if rec.Code != 200 {
		t.Fatalf("get rev 1: %d", rec.Code)
	}
	base, err := solution.DecodeJSON(rec.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	rec, _ = doJSON(t, h, "GET", "/instances/net?rev=2&delta=1", "", nil)
	if rec.Code != 200 || rec.Header().Get("Content-Type") != "application/octet-stream" {
		t.Fatalf("get delta: %d %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	rebuilt, err := solution.ApplyDelta(base, rec.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rebuilt.EncodeBinary(), cur.EncodeBinary()) {
		t.Fatal("delta endpoint did not reconstruct the served artifact")
	}

	// List and metrics: per-instance detail lives in the list, not in
	// /metrics.
	rec, _ = doJSON(t, h, "GET", "/instances", "", nil)
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"id":"net","rev":2,`) {
		t.Fatalf("list: %d %s", rec.Code, rec.Body)
	}
	req := httptest.NewRequest("GET", "/metrics", nil)
	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, req)
	metrics := mrec.Body.String()
	for _, want := range []string{
		"antennad_instance_repairs_total 1",
		"antennad_instance_conflicts_total 1",
		"antennad_instance_dirty_fraction_bucket",
		"antennad_instance_churn_seconds_count 1",
		"antennad_instances 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// Unknown ids and bad revisions.
	if rec, _ = doJSON(t, h, "GET", "/instances/ghost", "", nil); rec.Code != 404 {
		t.Fatalf("ghost get: %d", rec.Code)
	}
	if rec, _ = doJSON(t, h, "GET", "/instances/net?rev=99", "", nil); rec.Code != 404 {
		t.Fatalf("future rev: %d", rec.Code)
	}
	if rec, _ = doJSON(t, h, "PATCH", "/instances/net", `{"ops":[]}`, nil); rec.Code != 422 {
		t.Fatalf("empty batch: %d", rec.Code)
	}
	if rec, _ = doJSON(t, h, "PATCH", "/instances/net", patch, map[string]string{"If-Match": "bogus"}); rec.Code != 400 {
		t.Fatalf("bad If-Match: %d", rec.Code)
	}

	// Delete, then everything 404s.
	req = httptest.NewRequest("DELETE", "/instances/net", nil)
	drec := httptest.NewRecorder()
	h.ServeHTTP(drec, req)
	if drec.Code != http.StatusNoContent {
		t.Fatalf("delete: %d", drec.Code)
	}
	if rec, _ = doJSON(t, h, "GET", "/instances/net", "", nil); rec.Code != 404 {
		t.Fatalf("get after delete: %d", rec.Code)
	}
}

// TestInstanceHistoryEvictionHTTP: revisions beyond the history window
// answer 410 Gone.
func TestInstanceHistoryEvictionHTTP(t *testing.T) {
	eng := NewEngine(Options{InstanceHistory: 2})
	h := NewServer(eng).Handler()
	rec, _ := doJSON(t, h, "POST", "/instances",
		`{"id":"e","gen":{"workload":"uniform","n":120,"seed":4},"k":5,"phi":0,"algo":"cover"}`, nil)
	if rec.Code != 201 {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"ops":[{"op":"add","x":%d.5,"y":1}]}`, i)
		if rec, _ = doJSON(t, h, "PATCH", "/instances/e", body, nil); rec.Code != 200 {
			t.Fatalf("patch %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	if rec, _ = doJSON(t, h, "GET", "/instances/e?rev=1", "", nil); rec.Code != http.StatusGone {
		t.Fatalf("evicted rev: %d", rec.Code)
	}
}

// TestNegativeCache: an infeasible budget is planned once; repeats are
// answered from the negative cache and counted, and the error stays
// byte-for-byte identical.
func TestNegativeCache(t *testing.T) {
	eng := NewEngine(Options{})
	pts := benchLikePoints(64)
	// k=1, φ=0 demanding symmetric connectivity: no orienter guarantees
	// it (the planner rejects the whole portfolio).
	req := Request{Pts: pts, K: 1, Phi: 0, Objective: mustObjective(t, "symmetric", "stretch")}
	_, _, err1 := eng.Solve(context.Background(), req)
	if err1 == nil {
		t.Fatal("infeasible objective must fail")
	}
	var inf *InfeasibleError
	if !errors.As(err1, &inf) {
		t.Fatalf("error not marked infeasible: %v", err1)
	}
	if eng.Metrics().NegativeHits.Load() != 0 {
		t.Fatal("first failure must not count as a negative hit")
	}
	_, _, err2 := eng.Solve(context.Background(), req)
	if err2 == nil || err2.Error() != err1.Error() {
		t.Fatalf("cached error differs: %v vs %v", err2, err1)
	}
	if got := eng.Metrics().NegativeHits.Load(); got != 1 {
		t.Fatalf("negative hits = %d, want 1", got)
	}
	if eng.NegativeLen() != 1 {
		t.Fatalf("negative entries = %d", eng.NegativeLen())
	}
	// An unsupported explicit orienter budget is negatively cached too.
	reqAlgo := Request{Pts: pts, K: 1, Phi: 0, Algo: "k1"} // k1 needs φ ≥ π
	if _, _, err := eng.Solve(context.Background(), reqAlgo); err == nil {
		t.Fatal("unsupported budget must fail")
	}
	if _, _, err := eng.Solve(context.Background(), reqAlgo); err == nil {
		t.Fatal("unsupported budget must fail again")
	}
	if got := eng.Metrics().NegativeHits.Load(); got != 2 {
		t.Fatalf("negative hits = %d, want 2", got)
	}
	// A feasible request is unaffected.
	if _, _, err := eng.Solve(context.Background(), Request{Pts: pts, K: 2, Phi: 0}); err != nil {
		t.Fatalf("feasible request failed: %v", err)
	}
}

func mustObjective(t *testing.T, conn, minimize string) plan.Objective {
	t.Helper()
	o, err := (wireObjective{Conn: conn, Minimize: minimize}).toObjective()
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// benchLikePoints is a tiny deterministic deployment for engine tests.
func benchLikePoints(n int) []geom.Point {
	pts := make([]geom.Point, 0, n)
	for i := 0; i < n; i++ {
		pts = append(pts, geom.Point{X: float64(i%8) + 0.31*float64(i%3), Y: float64(i/8) + 0.17*float64(i%5)})
	}
	return pts
}

// TestLegacyEndpointsRejectPatch: only the /instances routes accept
// PATCH; the orient/plan endpoints keep their POST-only contract.
func TestLegacyEndpointsRejectPatch(t *testing.T) {
	eng := NewEngine(Options{})
	h := NewServer(eng).Handler()
	for _, path := range []string{"/orient", "/plan"} {
		rec, _ := doJSON(t, h, "PATCH", path, `{"k":2,"phi":0}`, nil)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Fatalf("PATCH %s: %d, want 405", path, rec.Code)
		}
	}
}

// TestInstanceReadsDoNotBlockOnSolve: List and the metrics renderer must
// answer while a batch's full solve is in flight — the state mutex is
// held only around the snapshot swap, never across a solve.
func TestInstanceReadsDoNotBlockOnSolve(t *testing.T) {
	solving := make(chan struct{})
	release := make(chan struct{})
	eng := NewEngine(Options{})
	inner := eng.InstanceSolver()
	first := true
	m := instance.NewManager(instance.Config{
		Solve: func(ctx context.Context, pts []geom.Point, b instance.Budget) (*solution.Solution, error) {
			if !first {
				close(solving)
				<-release
			}
			first = false
			return inner(ctx, pts, b)
		},
		RepairThreshold: -1, // force the full-solve path on Apply
	})
	if _, err := m.Create(context.Background(), "slow", benchLikePoints(64), instance.Budget{K: 5, Phi: 0, Algo: "cover"}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := m.Apply(context.Background(), "slow", 0, []solution.PointOp{{Op: solution.OpAdd, X: 1, Y: 1}})
		done <- err
	}()
	<-solving
	// The solve is parked; reads must return promptly.
	readsDone := make(chan struct{})
	go func() {
		if ls := m.List(); len(ls) != 1 || ls[0].Rev != 1 {
			t.Errorf("list during solve: %+v", ls)
		}
		if snap, err := m.Get("slow", 0); err != nil || snap.Rev != 1 {
			t.Errorf("get during solve: %v %v", snap, err)
		}
		var sb strings.Builder
		if err := m.WriteMetrics(&sb); err != nil {
			t.Errorf("metrics during solve: %v", err)
		}
		close(readsDone)
	}()
	select {
	case <-readsDone:
	case <-time.After(10 * time.Second):
		t.Fatal("reads blocked behind an in-flight solve")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if snap, _ := m.Get("slow", 0); snap.Rev != 2 {
		t.Fatalf("apply did not land: rev %d", snap.Rev)
	}
}
