package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// call is one HTTP operation a workload sends.
type call struct {
	method, path string
	body         []byte
	// ifMatch is the If-Match revision, sent when non-empty.
	ifMatch string
	// due is when the operation became due: its scheduled send time in
	// an open loop, the client's previous completion in a closed loop.
	// Zero means "now".
	due time.Time
	// open marks an open-loop operation, whose latency runs from due
	// (so a stall charges every request scheduled behind it).
	open bool
}

// reply is what came back.
type reply struct {
	status     int
	body       []byte
	hdr        http.Header
	sent, done time.Time
	traceID    string // the X-Trace-Id sent, traced runs only
}

// opInfo labels a sample: class is the operation class the summaries
// group by ("solve", "hit", "patch", "conflict", "read", "delta",
// "create", "warm", ...), group a sub-key (the deployment family), key the
// instance id for churn operations, and repairable whether that
// instance's budget has an incremental repair class.
type opInfo struct {
	class, group, key string
	repairable        bool
}

// sample is one completed, checked operation.
type sample struct {
	opInfo
	phase   string
	latMS   float64 // what the user waited: done − due (open) or done − sent
	svcMS   float64 // done − sent
	lateMS  float64 // sent − due
	traceID string
	timing  map[string]float64 // parsed Server-Timing, traced runs only
	cache   string             // X-Cache
	repair  string             // X-Repair
	rclass  string             // X-Repair-Class
	size    int
}

// run is the client side of one pass: the HTTP client every workload
// operation goes through, plus the samples and failure counts.
type run struct {
	workload string
	traced   bool
	conns    int

	base string
	hc   *http.Client
	seq  atomic.Int64
	// poller collects /debug/traces while the final server runs.
	poller *tracePoller

	mu        sync.Mutex
	phase     string
	keep      bool // record samples (false during discarded setups)
	samples   []sample
	attempted int
	failed    int
	failures  []string
}

func newRun(workload string, conns int, traced bool) *run {
	return &run{workload: workload, conns: conns, traced: traced}
}

// bind points the client at a (re)started server. Pooled connections to
// a crashed process are dropped with the old client.
func (r *run) bind(base string) {
	if r.hc != nil {
		r.hc.CloseIdleConnections()
	}
	r.base = base
	r.hc = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     r.conns,
		MaxIdleConnsPerHost: r.conns,
		DisableCompression:  true,
	}}
}

func (r *run) setPhase(phase string, keep bool) {
	r.mu.Lock()
	r.phase, r.keep = phase, keep
	r.mu.Unlock()
}

// send performs c and reads the whole body.
func (r *run) send(ctx context.Context, c call, traceID string) (reply, error) {
	var body io.Reader
	if c.body != nil {
		body = bytes.NewReader(c.body)
	}
	req, err := http.NewRequestWithContext(ctx, c.method, r.base+c.path, body)
	if err != nil {
		return reply{}, err
	}
	if c.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.ifMatch != "" {
		req.Header.Set("If-Match", strconv.Quote(c.ifMatch))
	}
	if traceID != "" {
		req.Header.Set("X-Trace-Id", traceID)
	}
	rep := reply{sent: time.Now(), traceID: traceID}
	resp, err := r.hc.Do(req)
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	rep.body, err = io.ReadAll(resp.Body)
	rep.done = time.Now()
	rep.status, rep.hdr = resp.StatusCode, resp.Header
	return rep, err
}

// op sends c, runs check on the reply, and records the outcome: a
// transport error or a failed check counts as a failure, anything else
// becomes a sample. It reports whether the operation succeeded.
func (r *run) op(ctx context.Context, c call, info opInfo, check func(reply) error) (reply, bool) {
	var traceID string
	if r.traced {
		traceID = r.workload + "-" + strconv.FormatInt(r.seq.Add(1), 10)
	}
	rep, err := r.send(ctx, c, traceID)
	if err == nil {
		err = check(rep)
	}
	if err != nil {
		r.fail("%s %s %s: %v", info.class, c.method, c.path, err)
		return rep, false
	}
	due := c.due
	if due.IsZero() {
		due = rep.sent
	}
	s := sample{
		opInfo:  info,
		svcMS:   ms(rep.done.Sub(rep.sent)),
		lateMS:  ms(rep.sent.Sub(due)),
		traceID: traceID,
		cache:   rep.hdr.Get("X-Cache"),
		repair:  rep.hdr.Get("X-Repair"),
		rclass:  rep.hdr.Get("X-Repair-Class"),
		size:    len(rep.body),
	}
	s.latMS = s.svcMS
	if c.open {
		s.latMS = ms(rep.done.Sub(due))
	}
	if r.traced {
		s.timing, _ = parseServerTiming(rep.hdr.Get("Server-Timing"))
	}
	r.mu.Lock()
	r.attempted++
	s.phase = r.phase
	if r.keep {
		r.samples = append(r.samples, s)
	}
	n := len(r.samples)
	r.mu.Unlock()
	if r.poller != nil && n%64 == 0 {
		r.poller.nudge()
	}
	return rep, true
}

// fail counts one failed operation or check.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// check runs an untimed correctness gate, counting it as one attempted
// operation.
func (r *run) check(what string, err error) {
	if err != nil {
		r.fail("%s: %v", what, err)
		return
	}
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

// windowSamples returns the samples of the timed window.
func (r *run) windowSamples() []sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []sample
	for _, s := range r.samples {
		if s.phase == "window" {
			out = append(out, s)
		}
	}
	return out
}

// wantStatus is the check for operations that only need a status code.
func wantStatus(code int) func(reply) error {
	return func(rep reply) error {
		if rep.status != code {
			return fmt.Errorf("status %d, want %d: %.200s", rep.status, code, rep.body)
		}
		return nil
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
