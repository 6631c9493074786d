package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/instance"
	"repro/internal/service"
	"repro/internal/solution"
)

// inprocServer is antennad's serving stack (service.NewServer over an
// engine with antennad's default batch window) behind httptest, so the
// workloads run in the test binary. A crash closes the listeners and
// the engine; the data directories survive for the restart.
type inprocServer struct {
	dir    string
	cfg    serverConfig
	traced bool
	// wrap, when set, sits between the client and the API handler.
	wrap func(http.Handler) http.Handler

	eng     *service.Engine
	api     *service.Server
	ts, dbg *httptest.Server
}

func (s *inprocServer) start(ctx context.Context, fresh bool) error {
	if fresh {
		if err := os.RemoveAll(s.dir); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	opts := service.Options{CacheSize: s.cfg.cacheEntries, BatchWindow: 2 * time.Millisecond}
	if s.cfg.store {
		st, err := solution.OpenStore(filepath.Join(s.dir, "store"), 0)
		if err != nil {
			return err
		}
		opts.Store = st
	}
	if s.cfg.wal {
		opts.InstanceWAL = &instance.WALConfig{Dir: filepath.Join(s.dir, "wal")}
	}
	s.eng = service.NewEngine(opts)
	s.api = service.NewServer(s.eng)
	if s.cfg.wal {
		if _, err := s.api.Instances().Recover(ctx); err != nil {
			return err
		}
	}
	h := s.api.Handler()
	if s.wrap != nil {
		h = s.wrap(h)
	}
	s.ts = httptest.NewServer(h)
	if s.traced {
		s.dbg = httptest.NewServer(s.api.DebugHandler())
	}
	return nil
}

func (s *inprocServer) crash() error {
	if s.ts == nil {
		return nil
	}
	s.ts.Close()
	if s.dbg != nil {
		s.dbg.Close()
	}
	err := s.api.Instances().Close()
	s.eng.Close()
	s.ts, s.dbg = nil, nil
	return err
}

func (s *inprocServer) close() { _ = s.crash() }

func (s *inprocServer) url() string { return s.ts.URL }

func (s *inprocServer) debugURL() string {
	if s.dbg == nil {
		return ""
	}
	return s.dbg.URL
}

func (s *inprocServer) peakRSSMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// smallWorkloads are the four workloads at sizes that run in seconds.
func smallWorkloads(seed int64, seconds int) map[string]workload {
	return map[string]workload{
		"solve-cold":   newSolveCold(seed, coldSize{n: 400}),
		"orient-mixed": newOrientMixed(seed, seconds, mixedSize{n: 200, pool: 24, cacheEntries: 16, rate: 200}),
		"churn-fleet":  newChurn(seed, churnFleetSize(200, 1)),
		"churn-large":  newChurn(seed, churnLargeSize(3000)),
	}
}

func TestScheduleDeterminism(t *testing.T) {
	a, b, c := smallWorkloads(1, 1), smallWorkloads(1, 1), smallWorkloads(2, 1)
	for _, name := range workloadNames {
		ha, hb, hc := a[name].scheduleHash(), b[name].scheduleHash(), c[name].scheduleHash()
		if ha != hb {
			t.Errorf("%s: the same seed gave schedules %s and %s", name, ha[:12], hb[:12])
		}
		if ha == hc {
			t.Errorf("%s: seeds 1 and 2 gave the same schedule %s", name, ha[:12])
		}
	}
}

// TestSmokeWorkloads runs every workload, traced, through the in-process
// server: each must pass every correctness gate and report every metric.
func TestSmokeWorkloads(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w := smallWorkloads(1, 1)[name]
			srv := &inprocServer{dir: t.TempDir(), cfg: w.config(), traced: true}
			res, err := runPass(context.Background(), name, w, srv, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Fatalf("%d of %d operations failed: %v", res.Failed, res.Attempted, res.Failures)
			}
			for _, m := range e2eMetrics {
				if v, ok := res.E2E[m.name]; !ok || v <= 0 {
					t.Errorf("end-to-end %s = %v (present %v), want > 0", m.name, v, ok)
				}
			}
			for _, m := range layerMetrics {
				// The overhead metrics compare two passes; measure adds them.
				if _, ok := res.Layers[m.name]; !ok && !strings.HasPrefix(m.name, "bench.trace_overhead.") {
					t.Errorf("per-layer %s missing", m.name)
				}
			}
			if cov := res.Layers["bench.trace_coverage"]; cov < 0.95 {
				t.Errorf("trace coverage %.3f < 0.95", cov)
			}
			for _, m := range []string{"delaunay.build_ms.p50", "service.orient_ms.p50", "mst.prefetch_ms.p50", "bench.client_overhead_ms.p50"} {
				if res.Layers[m] == 0 {
					t.Errorf("%s is 0: every workload solves, so every workload has this layer", m)
				}
			}
		})
	}
}

// tamperNth passes the body of the n-th response whose request matches
// method and path prefix through tamper.
func tamperNth(method, pathPrefix string, n int64, tamper func([]byte) []byte) func(http.Handler) http.Handler {
	var seen atomic.Int64
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != method || !strings.HasPrefix(r.URL.Path, pathPrefix) || seen.Add(1) != n {
				next.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			for k, vs := range rec.Header() {
				w.Header()[k] = vs
			}
			w.WriteHeader(rec.Code)
			_, _ = w.Write(tamper(rec.Body.Bytes()))
		})
	}
}

func flipMiddleByte(b []byte) []byte {
	if len(b) > 0 {
		b[len(b)/2] ^= 0x5a
	}
	return b
}

// TestCorruptionIsCounted: a damaged answer must count as a failure.
func TestCorruptionIsCounted(t *testing.T) {
	for _, tc := range []struct {
		name     string
		workload string
		wrap     func(http.Handler) http.Handler
	}{
		// Each of the three set-ups sends one warm-up solve: this is the
		// window's first solve.
		{"solve artifact", "solve-cold", tamperNth(http.MethodPost, "/orient", 4, flipMiddleByte)},
		// Three set-ups warm 24 pool entries each, so this lands in the
		// window: a damaged artifact or a pool answer whose bytes changed.
		{"window answer", "orient-mixed", tamperNth(http.MethodPost, "/orient", 80, flipMiddleByte)},
		// A PATCH acknowledging the wrong revision.
		{"patch revision", "churn-large", tamperNth(http.MethodPatch, "/instances/", 2, func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"rev":`), []byte(`"rev":9`), 1)
		})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := smallWorkloads(1, 1)[tc.workload]
			srv := &inprocServer{dir: t.TempDir(), cfg: w.config(), wrap: tc.wrap}
			res, err := runPass(context.Background(), tc.workload, w, srv, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed == 0 {
				t.Fatalf("corrupted response went unnoticed (%d attempted)", res.Attempted)
			}
		})
	}
}
