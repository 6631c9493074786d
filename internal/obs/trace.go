// Package obs is the observability layer for the orientation service:
// request traces with phase spans (rendered as Server-Timing headers and
// kept in a bounded ring served at /debug/traces), allocation-free
// log-spaced latency histograms in Prometheus exposition format, a
// request-scoped structured logger, and runtime/pprof debug endpoints.
//
// The layer is designed to cost ~nothing when unused: every entry point
// tolerates a context without a trace (span start/end degrade to a nil
// check and a no-op closure), and histograms observe with a handful of
// atomic operations.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"time"
)

type ctxKey int

const (
	traceKey ctxKey = iota
	spanKey
	loggerKey
)

// Trace accumulates the spans recorded while serving one request. All
// methods are safe for concurrent use: phases the engine runs off the
// request goroutine (the orientation, salvage completions) record from
// their own goroutines.
type Trace struct {
	// ID is the request's trace identifier, echoed on the X-Trace-Id
	// response header. Immutable after NewTrace.
	ID string
	// Begin is the wall-clock instant the trace started.
	Begin time.Time

	mu    sync.Mutex
	spans []SpanRecord
	attrs []Attr
	wall  time.Duration
	done  bool
}

// SpanRecord is one completed (or still-open, Dur < 0) phase interval.
type SpanRecord struct {
	// Name is the phase label ("plan", "orient", "verify", ...).
	Name string
	// Start is the offset from the trace's Begin.
	Start time.Duration
	// Dur is the span's duration, or -1 while the span is open.
	Dur time.Duration
	// Parent is the index of the enclosing span, or -1 for a
	// top-level span. Only top-level spans contribute to the
	// Server-Timing phase sum.
	Parent int
}

// Attr is one key/value annotation on a trace (route, cache source,
// repair class, status).
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// NewTraceID returns a fresh random 16-hex-digit trace identifier.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; fall
		// back to a fixed marker rather than plumbing an error into
		// every request.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// SanitizeTraceID validates an inbound X-Trace-Id value. It returns ""
// (caller should mint a fresh ID) unless the value is 1..64 characters
// drawn from [A-Za-z0-9._-].
func SanitizeTraceID(id string) string {
	if id == "" || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			return ""
		}
	}
	return id
}

// NewTrace starts a trace with the given ID, beginning now.
func NewTrace(id string) *Trace {
	return &Trace{ID: id, Begin: time.Now()}
}

// WithTrace attaches t to the context. A nil t returns ctx unchanged.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey, t)
}

// FromContext returns the trace attached to ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey).(*Trace)
	return t
}

// Detach returns a context carrying ctx's trace, current span, and
// request logger but none of its deadlines or cancellation — the shape
// the single-flight leader needs: the flight outlives the leading
// caller, yet its phase spans should land on that caller's trace (and
// nest under the caller's enclosing span, so an instance-tier "solve"
// span keeps the engine phases as children instead of double-counting
// them at top level).
func Detach(ctx context.Context) context.Context {
	out := context.Background()
	if t := FromContext(ctx); t != nil {
		out = context.WithValue(out, traceKey, t)
		if idx, ok := ctx.Value(spanKey).(int); ok {
			out = context.WithValue(out, spanKey, idx)
		}
	}
	if l, ok := ctx.Value(loggerKey).(logger); ok {
		out = context.WithValue(out, loggerKey, l)
	}
	return out
}

var noopEnd = func() {}

// StartSpan opens a phase span named name on ctx's trace and returns a
// derived context (children started from it attribute to this span)
// plus the closure that ends the span. When ctx carries no trace both
// returns are no-ops and nothing allocates.
func StartSpan(ctx context.Context, name string) (context.Context, func()) {
	t := FromContext(ctx)
	if t == nil {
		return ctx, noopEnd
	}
	idx := t.startSpan(name, parentIndex(ctx))
	return context.WithValue(ctx, spanKey, idx), func() { t.endSpan(idx) }
}

func parentIndex(ctx context.Context) int {
	if idx, ok := ctx.Value(spanKey).(int); ok {
		return idx
	}
	return -1
}

func (t *Trace) startSpan(name string, parent int) int {
	off := time.Since(t.Begin)
	t.mu.Lock()
	idx := len(t.spans)
	if parent >= len(t.spans) {
		parent = -1
	}
	t.spans = append(t.spans, SpanRecord{Name: name, Start: off, Dur: -1, Parent: parent})
	t.mu.Unlock()
	return idx
}

func (t *Trace) endSpan(idx int) {
	t.mu.Lock()
	if idx >= 0 && idx < len(t.spans) && t.spans[idx].Dur < 0 {
		t.spans[idx].Dur = time.Since(t.Begin) - t.spans[idx].Start
	}
	t.mu.Unlock()
}

// SetAttr annotates the trace with a key/value pair.
func (t *Trace) SetAttr(key, value string) {
	t.mu.Lock()
	t.attrs = append(t.attrs, Attr{Key: key, Value: value})
	t.mu.Unlock()
}

// Annotate attaches key=value to ctx's trace, if any.
func Annotate(ctx context.Context, key, value string) {
	if t := FromContext(ctx); t != nil {
		t.SetAttr(key, value)
	}
}

// Finish freezes the trace's wall time (first call wins) and returns the
// Server-Timing header value: every top-level phase
// aggregated by name in first-seen order, a synthesized "other" bucket
// covering un-spanned wall time, and "total". By construction the
// non-total phases sum to the reported total (modulo clamping when
// overlapping spans over-account).
func (t *Trace) Finish() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.done {
		t.wall = time.Since(t.Begin)
		t.done = true
	}
	return t.serverTimingLocked()
}

// Wall returns the frozen wall time (zero before Finish).
func (t *Trace) Wall() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.wall
}

func (t *Trace) serverTimingLocked() string {
	type agg struct {
		name string
		dur  time.Duration
	}
	var phases []agg
	var sum time.Duration
	for _, s := range t.spans {
		if s.Parent != -1 {
			continue
		}
		d := s.Dur
		if d < 0 { // still open: clamp to the trace's wall
			d = t.wall - s.Start
			if d < 0 {
				d = 0
			}
		}
		sum += d
		found := false
		for i := range phases {
			if phases[i].name == s.Name {
				phases[i].dur += d
				found = true
				break
			}
		}
		if !found {
			phases = append(phases, agg{s.Name, d})
		}
	}
	other := t.wall - sum
	if other < 0 {
		other = 0
	}
	var b strings.Builder
	for _, p := range phases {
		fmt.Fprintf(&b, "%s;dur=%.3f, ", p.name, float64(p.dur)/1e6)
	}
	fmt.Fprintf(&b, "other;dur=%.3f, total;dur=%.3f", float64(other)/1e6, float64(t.wall)/1e6)
	return b.String()
}

// Snapshot returns a copy of the trace's spans and attributes.
func (t *Trace) Snapshot() ([]SpanRecord, []Attr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := make([]SpanRecord, len(t.spans))
	copy(spans, t.spans)
	attrs := make([]Attr, len(t.attrs))
	copy(attrs, t.attrs)
	return spans, attrs
}
