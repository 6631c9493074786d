package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/instance"
)

// A panicking handler must answer 500, increment antennad_panics_total,
// and leave the server serving.
func TestPanicRecoveryMiddleware(t *testing.T) {
	eng := NewEngine(Options{})
	srv := NewServer(eng)
	mux := http.NewServeMux()
	mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	mux.HandleFunc("/ok", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	ts := httptest.NewServer(srv.middleware(mux))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "internal error") {
		t.Fatalf("body %q lacks the error envelope", body)
	}
	if got := eng.Metrics().Panics.Load(); got != 1 {
		t.Fatalf("panics counter = %d, want 1", got)
	}
	// The process (and the server) survived.
	resp2, err := http.Get(ts.URL + "/ok")
	if err != nil || resp2.StatusCode != http.StatusOK {
		t.Fatalf("server dead after panic: %v %v", resp2, err)
	}
	resp2.Body.Close()
}

// During a drain, new API work is refused with 503 + Retry-After while
// /healthz and /metrics stay reachable (healthz reporting the drain).
func TestDrainRefusesNewWork(t *testing.T) {
	eng := NewEngine(Options{})
	srv := NewServer(eng)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	srv.BeginDrain()
	if !srv.Draining() {
		t.Fatal("Draining() = false after BeginDrain")
	}
	resp, err := http.Post(ts.URL+"/orient", "application/json", strings.NewReader(`{"k":1,"phi":0}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/orient during drain: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drain refusal lacks Retry-After")
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		OK       bool `json:"ok"`
		Draining bool `json:"draining"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable || health.OK || !health.Draining {
		t.Fatalf("healthz during drain: status=%d body=%+v", hresp.StatusCode, health)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK || !strings.Contains(string(mbody), "antennad_draining 1") {
		t.Fatalf("metrics during drain: status=%d, draining gauge missing", mresp.StatusCode)
	}
}

// AbortInflight must cancel the contexts of requests already past the
// drain gate, so a stuck solve cannot hold Shutdown hostage forever.
func TestAbortInflightCancelsRequests(t *testing.T) {
	eng := NewEngine(Options{})
	srv := NewServer(eng)
	entered := make(chan struct{})
	var once sync.Once
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { close(entered) })
		select {
		case <-r.Context().Done():
			w.WriteHeader(http.StatusServiceUnavailable)
		case <-time.After(30 * time.Second):
			w.WriteHeader(http.StatusOK)
		}
	})
	ts := httptest.NewServer(srv.middleware(mux))
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/slow")
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	<-entered
	srv.AbortInflight()
	select {
	case code := <-done:
		if code != http.StatusServiceUnavailable {
			t.Fatalf("in-flight request finished with %d, want 503 after abort", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request not cancelled by AbortInflight")
	}
}

// Durability failures surface as 503 + Retry-After through the instance
// error mapper.
func TestInstanceErrorDurability(t *testing.T) {
	srv := NewServer(NewEngine(Options{}))
	rec := httptest.NewRecorder()
	srv.instanceError(rec, context.DeadlineExceeded)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("deadline: %d", rec.Code)
	}
	rec2 := httptest.NewRecorder()
	srv.instanceError(rec2, fmt.Errorf("%w: disk on fire", instance.ErrDurability))
	if rec2.Code != http.StatusServiceUnavailable || rec2.Header().Get("Retry-After") == "" {
		t.Fatalf("durability: code=%d Retry-After=%q", rec2.Code, rec2.Header().Get("Retry-After"))
	}
}

// TestDrainAbortAnswers503: once AbortInflight has cancelled the request
// contexts, a solve unwinding on context.Canceled is the server giving
// up, not the client. A /orient miss and a full-solve PATCH both answer
// 503 + Retry-After, which retrying clients ride out, and the instance
// stays at its old revision.
func TestDrainAbortAnswers503(t *testing.T) {
	srv := NewServer(NewEngine(Options{}))
	h := srv.Handler()
	// tworay has no repair class, so every PATCH is a full engine solve.
	rec, _ := doJSON(t, h, "POST", "/instances",
		`{"id":"abort","gen":{"workload":"uniform","n":20000,"seed":4},"k":2,"phi":0,"algo":"tworay"}`, nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}

	srv.AbortInflight()
	for _, c := range []struct{ method, path, body string }{
		{"POST", "/orient", `{"gen":{"workload":"uniform","n":20000,"seed":5},"k":2,"phi":0,"algo":"tworay"}`},
		{"PATCH", "/instances/abort", `{"ops":[{"op":"move","index":3,"x":4.25,"y":5.5}]}`},
	} {
		rec, _ := doJSON(t, h, c.method, c.path, c.body, nil)
		if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
			t.Errorf("%s %s after AbortInflight: %d (Retry-After %q), want 503 + Retry-After: %s",
				c.method, c.path, rec.Code, rec.Header().Get("Retry-After"), rec.Body)
		}
	}
	rec, _ = doJSON(t, h, "GET", "/instances/abort", "", nil)
	if got := rec.Header().Get("ETag"); got != `"1"` {
		t.Fatalf("instance ETag %s after an aborted PATCH, want \"1\"", got)
	}
}
