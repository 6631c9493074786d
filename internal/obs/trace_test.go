package obs

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// phases parses a Server-Timing value into name → milliseconds.
func phases(t *testing.T, v string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, part := range strings.Split(v, ",") {
		part = strings.TrimSpace(part)
		fields := strings.SplitN(part, ";dur=", 2)
		if len(fields) != 2 {
			t.Fatalf("bad Server-Timing entry %q in %q", part, v)
		}
		ms, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("bad duration in %q: %v", part, err)
		}
		out[fields[0]] = ms
	}
	return out
}

// TestServerTimingSumsToWall: the non-total phases (including the
// synthesized "other") must sum to exactly the reported total — the
// structural property behind the acceptance criterion that phases sum
// to within 10% of wall time.
func TestServerTimingSumsToWall(t *testing.T) {
	tr := NewTrace("t1")
	ctx := WithTrace(context.Background(), tr)
	_, end := StartSpan(ctx, "plan")
	time.Sleep(2 * time.Millisecond)
	end()
	_, end = StartSpan(ctx, "orient")
	time.Sleep(5 * time.Millisecond)
	end()
	header := tr.Finish()

	ph := phases(t, header)
	total, ok := ph["total"]
	if !ok {
		t.Fatalf("no total phase in %q", header)
	}
	var sum float64
	for name, ms := range ph {
		if name != "total" {
			sum += ms
		}
	}
	if diff := sum - total; diff > 0.011 || diff < -0.011 {
		// Each phase is rendered at millisecond precision with 3 decimals,
		// so rounding can skew the sum by at most 0.5µs per phase.
		t.Fatalf("phases sum to %.3fms, total is %.3fms (header %q)", sum, total, header)
	}
	if ph["orient"] < 4 {
		t.Fatalf("orient phase %.3fms, slept 5ms (header %q)", ph["orient"], header)
	}
	if _, ok := ph["other"]; !ok {
		t.Fatalf("no synthesized other phase in %q", header)
	}
}

// TestNestedSpanAttribution: a span started from a child context must
// record its parent and stay out of the top-level Server-Timing sum —
// the child's time is already inside the parent's.
func TestNestedSpanAttribution(t *testing.T) {
	tr := NewTrace("t2")
	ctx := WithTrace(context.Background(), tr)
	pctx, endParent := StartSpan(ctx, "solve")
	_, endChild := StartSpan(pctx, "verify")
	time.Sleep(time.Millisecond)
	endChild()
	endParent()
	header := tr.Finish()

	spans, _ := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Parent != -1 {
		t.Fatalf("parent span has Parent %d, want -1", spans[0].Parent)
	}
	if spans[1].Parent != 0 {
		t.Fatalf("child span has Parent %d, want 0", spans[1].Parent)
	}
	if strings.Contains(header, "verify") {
		t.Fatalf("nested span leaked into Server-Timing: %q", header)
	}
	if !strings.Contains(header, "solve") {
		t.Fatalf("top-level span missing from Server-Timing: %q", header)
	}
}

// TestAsyncSpanExcluded: async spans overlap the main path, so they are
// visible in snapshots but excluded from the header sum.
func TestAsyncSpanExcluded(t *testing.T) {
	tr := NewTrace("t3")
	ctx := WithTrace(context.Background(), tr)
	end := AsyncSpan(ctx, "emst")
	_, endSync := StartSpan(ctx, "orient")
	time.Sleep(time.Millisecond)
	endSync()
	end()
	header := tr.Finish()
	if strings.Contains(header, "emst") {
		t.Fatalf("async span leaked into Server-Timing: %q", header)
	}
	spans, _ := tr.Snapshot()
	if !spans[0].Async {
		t.Fatal("async span not flagged in snapshot")
	}
}

// TestRepeatedPhaseAggregates: two top-level spans with the same name
// render as one aggregated phase.
func TestRepeatedPhaseAggregates(t *testing.T) {
	tr := NewTrace("t4")
	ctx := WithTrace(context.Background(), tr)
	for i := 0; i < 2; i++ {
		_, end := StartSpan(ctx, "store")
		time.Sleep(time.Millisecond)
		end()
	}
	header := tr.Finish()
	if strings.Count(header, "store;") != 1 {
		t.Fatalf("same-name phases not aggregated: %q", header)
	}
	if ph := phases(t, header); ph["store"] < 1.5 {
		t.Fatalf("aggregated store phase %.3fms, want >= ~2ms", ph["store"])
	}
}

// TestOpenSpanClamped: a span never ended is clamped to the trace's
// wall, not dropped and not negative.
func TestOpenSpanClamped(t *testing.T) {
	tr := NewTrace("t5")
	ctx := WithTrace(context.Background(), tr)
	StartSpan(ctx, "leaked") // never ended
	time.Sleep(time.Millisecond)
	header := tr.Finish()
	ph := phases(t, header)
	if ph["leaked"] <= 0 || ph["leaked"] > ph["total"] {
		t.Fatalf("open span clamped to %.3fms of total %.3fms", ph["leaked"], ph["total"])
	}
}

// TestUntracedNoop: without a trace on the context, StartSpan must not
// allocate and must return the context unchanged — the property that
// keeps benchmark paths unaffected.
func TestUntracedNoop(t *testing.T) {
	ctx := context.Background()
	got, end := StartSpan(ctx, "plan")
	if got != ctx {
		t.Fatal("untraced StartSpan derived a new context")
	}
	end()
	allocs := testing.AllocsPerRun(100, func() {
		c, e := StartSpan(ctx, "plan")
		e()
		_ = c
		Annotate(ctx, "k", "v")
		AsyncSpan(ctx, "a")()
	})
	if allocs != 0 {
		t.Fatalf("untraced span path allocates %.1f per op, want 0", allocs)
	}
}

// TestTraceConcurrency: spans recorded from many goroutines (the
// engine's async phases) must be race-free and all land on the trace.
func TestTraceConcurrency(t *testing.T) {
	tr := NewTrace("t6")
	ctx := WithTrace(context.Background(), tr)
	var wg sync.WaitGroup
	const workers, per = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_, end := StartSpan(ctx, "phase")
				tr.SetAttr("k", "v")
				end()
			}
		}()
	}
	wg.Wait()
	tr.Finish()
	spans, attrs := tr.Snapshot()
	if len(spans) != workers*per {
		t.Fatalf("got %d spans, want %d", len(spans), workers*per)
	}
	if len(attrs) != workers*per {
		t.Fatalf("got %d attrs, want %d", len(attrs), workers*per)
	}
}

func TestSanitizeTraceID(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"", ""},
		{"abc-123.X_Y", "abc-123.X_Y"},
		{"has space", ""},
		{"has\nnewline", ""},
		{"quote\"", ""},
		{strings.Repeat("a", 64), strings.Repeat("a", 64)},
		{strings.Repeat("a", 65), ""},
	}
	for _, c := range cases {
		if got := SanitizeTraceID(c.in); got != c.want {
			t.Errorf("SanitizeTraceID(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestDetach: the detached context keeps the trace, the enclosing span
// (so leader spans nest correctly), and survives the parent's
// cancellation.
func TestDetach(t *testing.T) {
	tr := NewTrace("t7")
	base, cancel := context.WithCancel(context.Background())
	ctx := WithTrace(base, tr)
	pctx, endParent := StartSpan(ctx, "solve")

	dctx := Detach(pctx)
	cancel()
	if dctx.Err() != nil {
		t.Fatal("detached context inherited cancellation")
	}
	if FromContext(dctx) != tr {
		t.Fatal("detached context lost the trace")
	}
	_, end := StartSpan(dctx, "plan")
	end()
	endParent()
	spans, _ := tr.Snapshot()
	if len(spans) != 2 || spans[1].Parent != 0 {
		t.Fatalf("detached child span parent = %d, want 0 (spans %+v)", spans[1].Parent, spans)
	}
}

// BenchmarkObsSpan prices one span on the two paths every request-phase
// site pays: no trace on the context (the benchmark and batch paths)
// versus a live trace. Together with BenchmarkHistogramObserve these
// bound the tracing tax the overhead budget test enforces.
func BenchmarkObsSpan(b *testing.B) {
	b.Run("untraced", func(b *testing.B) {
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, end := StartSpan(ctx, "phase")
			end()
		}
	})
	b.Run("traced", func(b *testing.B) {
		tr := NewTrace("bench")
		ctx := WithTrace(context.Background(), tr)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, end := StartSpan(ctx, "phase")
			end()
			// Reset so the span slice doesn't grow without bound.
			if i%1024 == 1023 {
				tr.mu.Lock()
				tr.spans = tr.spans[:0]
				tr.mu.Unlock()
			}
		}
	})
}
