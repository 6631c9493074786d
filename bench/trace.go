package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// parseServerTiming reads antennad's Server-Timing header, e.g.
// "cache;dur=0.004, orient;dur=7.8, other;dur=0.8, total;dur=8.6", into
// phase → milliseconds.
func parseServerTiming(h string) (map[string]float64, error) {
	out := make(map[string]float64)
	if strings.TrimSpace(h) == "" {
		return out, fmt.Errorf("empty Server-Timing")
	}
	for _, entry := range strings.Split(h, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ";")
		name := strings.TrimSpace(parts[0])
		if name == "" {
			return nil, fmt.Errorf("Server-Timing entry %q has no name", entry)
		}
		found := false
		for _, p := range parts[1:] {
			k, v, ok := strings.Cut(strings.TrimSpace(p), "=")
			if !ok || k != "dur" {
				continue
			}
			d, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, fmt.Errorf("Server-Timing %s: %w", name, err)
			}
			out[name] += d
			found = true
		}
		if !found {
			return nil, fmt.Errorf("Server-Timing entry %q has no dur", entry)
		}
	}
	return out, nil
}

// traceView is one trace of antennad's /debug/traces payload.
type traceView struct {
	TraceID string `json:"trace_id"`
	Spans   []struct {
		Name  string  `json:"name"`
		DurMS float64 `json:"dur_ms"`
	} `json:"spans"`
}

// span sums the durations of every span named name, at any nesting
// depth; ok is false when the trace has none.
func (v traceView) span(name string) (total float64, ok bool) {
	for _, s := range v.Spans {
		if s.Name == name {
			total += s.DurMS
			ok = true
		}
	}
	return total, ok
}

// tracePoller copies the traces of the benchmark's own requests out of
// antennad's bounded /debug/traces ring before they are overwritten: it
// polls every 250ms, and sooner when nudged by a burst of completions.
type tracePoller struct {
	base, prefix string
	hc           *http.Client
	kick, stop   chan struct{}
	done         chan struct{}

	mu   sync.Mutex
	seen map[string]traceView
}

func startPoller(base, prefix string) *tracePoller {
	p := &tracePoller{
		base: base, prefix: prefix,
		hc:   &http.Client{Timeout: 10 * time.Second},
		kick: make(chan struct{}, 1), stop: make(chan struct{}), done: make(chan struct{}),
		seen: make(map[string]traceView),
	}
	go p.loop()
	return p
}

func (p *tracePoller) loop() {
	defer close(p.done)
	t := time.NewTicker(250 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			p.poll()
			return
		case <-t.C:
			p.poll()
		case <-p.kick:
			p.poll()
		}
	}
}

// nudge asks for a poll without waiting for it.
func (p *tracePoller) nudge() {
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

// finish polls a last time, stops the poller, and returns every trace
// collected, by trace id.
func (p *tracePoller) finish() map[string]traceView {
	close(p.stop)
	<-p.done
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.seen
}

func (p *tracePoller) poll() {
	var snap struct {
		Recent []traceView `json:"recent"`
		Slow   []traceView `json:"slow"`
	}
	if err := getJSON(context.Background(), p.hc, p.base+"/debug/traces", &snap); err != nil {
		return // the traces it missed lower bench.trace_coverage
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, v := range append(snap.Recent, snap.Slow...) {
		if strings.HasPrefix(v.TraceID, p.prefix) {
			if _, dup := p.seen[v.TraceID]; !dup {
				p.seen[v.TraceID] = v
			}
		}
	}
}

// runtimeView is antennad's /debug/runtime payload.
type runtimeView struct {
	TotalAllocBytes uint64  `json:"total_alloc_bytes"`
	GCCycles        uint64  `json:"gc_cycles"`
	GCPauseP99MS    float64 `json:"gc_pause_p99_ms"`
}

func readRuntime(ctx context.Context, debugBase string) (runtimeView, error) {
	var v runtimeView
	err := getJSON(ctx, &http.Client{Timeout: 10 * time.Second}, debugBase+"/debug/runtime", &v)
	return v, err
}

func getJSON(ctx context.Context, hc *http.Client, url string, dst any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}
