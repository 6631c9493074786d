package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/pointset"
)

// The HTTP/JSON surface of the engine, served by cmd/antennad:
//
//	POST /orient  — solve a request, serving from cache when possible
//	POST /plan    — run the planner without orienting
//	GET  /algos   — list the registered portfolio with guarantees
//	GET  /healthz — liveness
//	GET  /metrics — engine counters, Prometheus text format
//
// /orient responses are solution artifacts in the deterministic codecs
// of internal/solution: a repeated request is served from cache with a
// byte-identical body (the X-Cache header — memory, disk, or miss — is
// the only difference). Request lifecycle: when Options.MaxInflight is
// set, excess concurrent /orient requests are shed with 429 and a
// Retry-After hint instead of queueing without bound; when
// Options.Deadline is set, each request runs under that context
// deadline, propagated through the engine into the orientation, and an
// expired request answers 503. Semantics are documented in
// docs/OPERATIONS.md.

// wirePoint is one sensor coordinate in request JSON.
type wirePoint struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// wireGen asks the server to generate the deployment instead of
// shipping coordinates — handy for smoke tests and load generation.
type wireGen struct {
	Workload string `json:"workload"`
	N        int    `json:"n"`
	Seed     int64  `json:"seed"`
}

// wireObjective mirrors plan.Objective in request JSON.
type wireObjective struct {
	Conn     string `json:"conn"`     // "strong" (default) or "symmetric"
	Minimize string `json:"minimize"` // "stretch" (default), "antennae", "spread"
	StrongC  int    `json:"strong_c"`
	RaceMS   int    `json:"race_ms"` // > 0 races the shortlist on the instance
}

func (w wireObjective) toObjective() (plan.Objective, error) {
	obj := plan.Objective{StrongC: w.StrongC}
	var err error
	if obj.Conn, err = plan.ParseConn(w.Conn); err != nil {
		return obj, err
	}
	if obj.Minimize, err = plan.ParseMinimize(w.Minimize); err != nil {
		return obj, err
	}
	if w.RaceMS > 0 {
		obj.Deadline = time.Duration(w.RaceMS) * time.Millisecond
	}
	return obj, nil
}

// orientRequest is the /orient (and /plan) request body.
type orientRequest struct {
	Points    []wirePoint    `json:"points,omitempty"`
	Gen       *wireGen       `json:"gen,omitempty"`
	K         int            `json:"k"`
	Phi       float64        `json:"phi"`
	Algo      string         `json:"algo,omitempty"`
	Objective *wireObjective `json:"objective,omitempty"`
	Format    string         `json:"format,omitempty"` // "json" (default) or "binary"
}

func (o orientRequest) points() ([]geom.Point, error) {
	if o.Gen != nil {
		if len(o.Points) > 0 {
			return nil, fmt.Errorf("request has both points and gen")
		}
		if o.Gen.N < 0 || o.Gen.N > 1_000_000 {
			return nil, fmt.Errorf("gen.n %d out of range [0, 1e6]", o.Gen.N)
		}
		rng := rand.New(rand.NewSource(o.Gen.Seed))
		return pointset.Workload(o.Gen.Workload, rng, o.Gen.N), nil
	}
	pts := make([]geom.Point, len(o.Points))
	for i, p := range o.Points {
		pts[i] = geom.Point{X: p.X, Y: p.Y}
	}
	return pts, nil
}

// Server wires an Engine to the HTTP API.
type Server struct {
	eng       *Engine
	instances *instance.Manager
	start     time.Time
	// inflight is the bounded /orient queue: a semaphore sized by
	// Options.MaxInflight, nil when unbounded.
	inflight chan struct{}
	// draining flips on BeginDrain: new work is answered 503 while
	// in-flight requests run to completion (or until AbortInflight).
	draining atomic.Bool
	// abortCtx is merged into every request context by the middleware;
	// AbortInflight cancels it when the drain deadline expires.
	abortCtx    context.Context
	abortCancel context.CancelFunc
	// ring holds the recent and slowest request traces for /debug/traces.
	ring *obs.Ring
	// logger receives request-lifecycle records; every request gets a
	// child logger carrying its trace ID (obs.Logger(ctx) inside
	// handlers). Discards unless SetLogger is called.
	logger *slog.Logger
}

// NewServer returns a server over the engine, honoring the engine's
// MaxInflight and Deadline options on /orient, with a live-instance
// manager solving through the same engine.
func NewServer(eng *Engine) *Server {
	s := &Server{
		eng:       eng,
		instances: NewInstanceManager(eng),
		start:     time.Now(),
		ring:      obs.NewRing(128, 32),
		logger:    slog.New(slog.DiscardHandler),
	}
	if n := eng.opts.MaxInflight; n > 0 {
		s.inflight = make(chan struct{}, n)
	}
	s.abortCtx, s.abortCancel = context.WithCancel(context.Background())
	return s
}

// Instances exposes the server's live-instance manager (tests, CLIs).
func (s *Server) Instances() *instance.Manager { return s.instances }

// SetLogger installs the structured logger request records are written
// to (cmd/antennad passes its process logger; tests may capture one).
func (s *Server) SetLogger(l *slog.Logger) {
	if l != nil {
		s.logger = l
	}
}

// Traces exposes the bounded trace ring (tests, the debug mux).
func (s *Server) Traces() *obs.Ring { return s.ring }

// BeginDrain stops accepting new work: every request except /healthz
// and /metrics answers 503 + Retry-After while in-flight requests run
// to completion. Call before http.Server.Shutdown so the listener keeps
// answering (with refusals) instead of connection-resetting clients.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// AbortInflight cancels the context of every in-flight request — the
// drain deadline's last resort, after which solves unwind with
// context.Canceled and Shutdown can return.
func (s *Server) AbortInflight() { s.abortCancel() }

// Handler returns the API mux wrapped in the hardening middleware:
// per-request panic recovery and the drain gate.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/orient", s.handleOrient)
	mux.HandleFunc("/plan", s.handlePlan)
	mux.HandleFunc("/algos", s.handleAlgos)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("POST /instances", s.handleInstanceCreate)
	mux.HandleFunc("GET /instances", s.handleInstanceList)
	mux.HandleFunc("GET /instances/{id}", s.handleInstanceGet)
	mux.HandleFunc("PATCH /instances/{id}", s.handleInstancePatch)
	mux.HandleFunc("DELETE /instances/{id}", s.handleInstanceDelete)
	mux.HandleFunc("GET /debug/traces", s.ring.ServeHTTP)
	return s.middleware(mux)
}

// DebugHandler returns the profiling mux served on -debug-addr, kept
// off the serving mux deliberately: pprof and runtime snapshots expose
// process internals, so they bind to an operator-chosen (typically
// loopback) address instead of the traffic port.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/runtime", obs.HandleRuntime)
	mux.HandleFunc("/debug/traces", s.ring.ServeHTTP)
	return mux
}

// timingWriter injects the trace's Server-Timing header at the last
// possible moment — just before the first byte of status/body leaves —
// so the phase breakdown covers (almost) the whole wall time of the
// request.
type timingWriter struct {
	http.ResponseWriter
	tr     *obs.Trace
	status int
	wrote  bool
}

func (t *timingWriter) WriteHeader(code int) {
	t.seal(code)
	t.ResponseWriter.WriteHeader(code)
}

func (t *timingWriter) Write(b []byte) (int, error) {
	if !t.wrote {
		t.WriteHeader(http.StatusOK)
	}
	return t.ResponseWriter.Write(b)
}

// seal freezes the trace and sets the Server-Timing header once.
func (t *timingWriter) seal(code int) {
	if t.wrote {
		return
	}
	t.wrote = true
	t.status = code
	t.Header().Set("Server-Timing", t.tr.Finish())
}

// middleware hardens and instruments every route. Hardening: a
// panicking handler answers 500 and increments antennad_panics_total
// instead of killing the process (the net/http default only saves the
// connection, not the observability); a draining server refuses new
// work with 503 while /healthz and /metrics stay reachable for the
// balancer and the scraper; and the drain-abort context is merged into
// the request's so AbortInflight reaches every in-flight solve.
// Instrumentation: every request gets a trace (honoring an inbound
// X-Trace-Id, echoed on the response), a request-scoped structured
// logger, a Server-Timing phase breakdown injected at first write, and
// a slot in the /debug/traces ring.
func (s *Server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := obs.SanitizeTraceID(r.Header.Get("X-Trace-Id"))
		if id == "" {
			id = obs.NewTraceID()
		}
		tr := obs.NewTrace(id)
		tr.SetAttr("route", r.Method+" "+r.URL.Path)
		w.Header().Set("X-Trace-Id", id)
		tw := &timingWriter{ResponseWriter: w, tr: tr}
		reqLog := s.logger.With("trace_id", id)
		defer func() {
			if v := recover(); v != nil {
				s.eng.metrics.Panics.Add(1)
				reqLog.Error("handler panic", "method", r.Method, "path", r.URL.Path, "panic", fmt.Sprint(v))
				// Best effort: if the handler already wrote headers this
				// is a no-op on the status line.
				httpError(tw, http.StatusInternalServerError, "internal error: %v", v)
			}
			tw.seal(http.StatusOK) // no-op when the handler already wrote
			s.ring.Record(tr)
			lvl := slog.LevelDebug
			if tw.status >= 500 {
				lvl = slog.LevelWarn
			}
			reqLog.Log(r.Context(), lvl, "request",
				"method", r.Method, "path", r.URL.Path,
				"status", tw.status, "wall_ms", float64(tr.Wall())/1e6)
		}()
		if s.draining.Load() && r.URL.Path != "/healthz" && r.URL.Path != "/metrics" {
			tw.Header().Set("Retry-After", "1")
			httpError(tw, http.StatusServiceUnavailable, "server is draining")
			return
		}
		ctx, cancel := context.WithCancel(r.Context())
		defer cancel()
		stop := context.AfterFunc(s.abortCtx, cancel)
		defer stop()
		ctx = obs.WithTrace(ctx, tr)
		ctx = obs.WithLogger(ctx, reqLog)
		next.ServeHTTP(tw, r.WithContext(ctx))
	})
}

// requestCtx applies the engine's per-request deadline, when set.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if d := s.eng.opts.Deadline; d > 0 {
		return context.WithTimeout(r.Context(), d)
	}
	return r.Context(), func() {}
}

// contextError answers a request whose work ended on its context and
// reports whether err was such an error. An expired deadline or a drain
// abort (AbortInflight) is the server giving up, not the client: nothing
// was applied, so both answer 503 + Retry-After and retrying clients ride
// them out. Any other cancellation is a client that went away; nobody
// reads that response, and 499 is the conventional (non-standard) code
// for the logs.
func (s *Server) contextError(w http.ResponseWriter, err error) bool {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "deadline exceeded: %v", err)
	case errors.Is(err, context.Canceled) && s.abortCtx.Err() != nil:
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "server is draining: %v", err)
	case errors.Is(err, context.Canceled):
		w.WriteHeader(499)
	default:
		return false
	}
	return true
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return false
	}
	return decodeJSON(w, r, dst)
}

// decodeJSON parses a request body without a method check — for handlers
// whose mux registration already pins the method (the /instances routes).
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 128<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

func (s *Server) handleOrient(w http.ResponseWriter, r *http.Request) {
	// Load shedding: refuse immediately when the inflight bound is
	// reached — a client retry after backoff beats an unbounded queue.
	if s.inflight != nil {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
		default:
			s.eng.metrics.Shed.Add(1)
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, "server at capacity (%d inflight); retry after backoff", cap(s.inflight))
			return
		}
	}
	var body orientRequest
	if !decodeBody(w, r, &body) {
		return
	}
	pts, err := body.points()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	req := Request{Pts: pts, K: body.K, Phi: body.Phi, Algo: body.Algo}
	if body.Objective != nil {
		if body.Algo != "" {
			httpError(w, http.StatusBadRequest, "request has both algo and objective")
			return
		}
		obj, err := body.Objective.toObjective()
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		req.Objective = obj
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	sol, src, err := s.eng.Solve(ctx, req)
	if err != nil {
		if !s.contextError(w, err) {
			httpError(w, http.StatusUnprocessableEntity, "%v", err)
		}
		return
	}
	w.Header().Set("X-Cache", src.String())
	obs.Annotate(r.Context(), "cache", src.String())
	switch body.Format {
	case "", "json":
		data, err := sol.EncodeJSON()
		if err != nil {
			httpError(w, http.StatusInternalServerError, "encode: %v", err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(data)
	case "binary":
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(sol.EncodeBinary())
	default:
		httpError(w, http.StatusBadRequest, "unknown format %q (json|binary)", body.Format)
	}
}

// planRequest is the /plan request body (no points needed: planning is
// a-priori over declared guarantees).
type planRequest struct {
	K         int            `json:"k"`
	Phi       float64        `json:"phi"`
	Objective *wireObjective `json:"objective,omitempty"`
}

// planResponse mirrors plan.Decision in response JSON.
type planResponse struct {
	Winner    string          `json:"winner"`
	Guarantee wireGuarantee   `json:"guarantee"`
	Shortlist []wireCandidate `json:"shortlist"`
	Rejected  []wireRejection `json:"rejected,omitempty"`
}

type wireGuarantee struct {
	Conn     string  `json:"conn"`
	Stretch  float64 `json:"stretch"`
	Antennae int     `json:"antennae"`
	Spread   float64 `json:"spread"`
	StrongC  int     `json:"strong_c"`
}

type wireCandidate struct {
	Name      string        `json:"name"`
	Guarantee wireGuarantee `json:"guarantee"`
}

type wireRejection struct {
	Name   string `json:"name"`
	Reason string `json:"reason"`
}

func toWireGuarantee(g core.Guarantee) wireGuarantee {
	return wireGuarantee{
		Conn:     g.Conn.String(),
		Stretch:  g.Stretch,
		Antennae: g.Antennae,
		Spread:   g.Spread,
		StrongC:  g.StrongC,
	}
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var body planRequest
	if !decodeBody(w, r, &body) {
		return
	}
	obj := plan.Objective{}
	if body.Objective != nil {
		var err error
		obj, err = body.Objective.toObjective()
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	d, err := s.eng.Plan(obj, body.K, body.Phi)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	resp := planResponse{Winner: d.Winner, Guarantee: toWireGuarantee(d.Guarantee)}
	for _, c := range d.Shortlist {
		resp.Shortlist = append(resp.Shortlist, wireCandidate{Name: c.Name, Guarantee: toWireGuarantee(c.Guarantee)})
	}
	for _, rej := range d.Rejected {
		resp.Rejected = append(resp.Rejected, wireRejection{Name: rej.Name, Reason: rej.Reason})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

func (s *Server) handleAlgos(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(Algos())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	draining := s.draining.Load()
	w.Header().Set("Content-Type", "application/json")
	if draining {
		// The balancer should fail over, but the body still reports.
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(map[string]any{
		"ok":       !draining,
		"draining": draining,
		"uptime_s": int(time.Since(s.start) / time.Second),
		"algos":    strings.Join(core.OrienterNames(), ","),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	draining := 0
	if s.draining.Load() {
		draining = 1
	}
	_, _ = fmt.Fprintf(w, "# HELP antennad_draining whether the server is refusing new work ahead of shutdown\n# TYPE antennad_draining gauge\nantennad_draining %d\n", draining)
	_ = s.eng.WriteMetrics(w)
	_ = s.instances.WriteMetrics(w)
}
