package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/pointset"
	"repro/internal/solution"
)

// orient-mixed: open-loop Poisson arrivals over a fixed pool of distinct
// requests (85%) and never-seen requests (15%). The pool is larger than
// the in-memory artifact tier, so pool requests split between memory and
// disk hits, and the fresh ones pay the whole miss path, batch window
// included. Every request body is built before the server starts.

type mixedSize struct {
	n            int
	pool         int
	cacheEntries int     // in-memory tier capacity, below pool so some hits come from disk
	rate         float64 // arrivals per second
}

type mixedReq struct {
	family string
	pts    []geom.Point
	digest string
	b      budget
	body   []byte
}

// slot is one scheduled arrival.
type slot struct {
	at   time.Duration
	pool bool
	idx  int
}

type orientMixed struct {
	size  mixedSize
	pool  []mixedReq
	fresh []mixedReq
	sched []slot

	// mu guards warmSHA while setup's clients fill it and freshSeen
	// while drive's do.
	mu        sync.Mutex
	warmSHA   [][32]byte
	freshSeen map[int]mixedSeen // fresh idx → what came back
}

type mixedSeen struct {
	traceID string
	body    []byte
}

// Arrival mix: of every 20 arrivals, 17 go to the pool and 3 are fresh.
const (
	mixedPoolPerBlock  = 17
	mixedFreshPerBlock = 3
	mixedProbes        = 200
)

func newOrientMixed(seed int64, seconds int, size mixedSize) *orientMixed {
	w := &orientMixed{size: size}
	named, planned := mixedBudgets()
	families := pointset.WorkloadNames()
	build := func(stream, i int) mixedReq {
		rng := rand.New(rand.NewSource(subSeed(seed, stream, i)))
		cands := named
		if i%2 == 1 {
			cands = planned
		}
		q := mixedReq{family: families[i%len(families)], b: cands[rng.Intn(len(cands))]}
		q.pts = pointset.Workload(q.family, rng, size.n)
		q.digest = solution.Digest(q.pts)
		q.body = orientBody(q.pts, q.b)
		return q
	}
	for i := 0; i < size.pool; i++ {
		w.pool = append(w.pool, build(3, i))
	}

	rng := rand.New(rand.NewSource(subSeed(seed, 4, 0)))
	mix := &mixer{rng: rng, weights: []int{mixedPoolPerBlock, mixedFreshPerBlock}}
	var at time.Duration
	for {
		at += time.Duration(rng.ExpFloat64() / size.rate * float64(time.Second))
		if at >= time.Duration(seconds)*time.Second {
			break
		}
		s := slot{at: at, pool: mix.next() == 0}
		if s.pool {
			s.idx = rng.Intn(size.pool)
		} else {
			s.idx = len(w.fresh)
			w.fresh = append(w.fresh, build(5, s.idx))
		}
		w.sched = append(w.sched, s)
	}
	return w
}

// mixedBudgets lists the request budgets: every (orienter, budget) pair
// of the portfolio grid the orienter supports, and every planner
// objective the grid can satisfy.
func mixedBudgets() (named, planned []budget) {
	for _, kp := range core.PortfolioBudgets() {
		for _, algo := range core.OrienterNames() {
			if b, ok := namedBudget(algo, kp.K, kp.Phi); ok {
				named = append(named, b)
			}
		}
		for _, conn := range []string{"strong", "symmetric"} {
			for _, minimize := range []string{"stretch", "antennae", "spread"} {
				if b, ok := objectiveBudget(conn, minimize, kp.K, kp.Phi); ok {
					planned = append(planned, b)
				}
			}
		}
	}
	return named, planned
}

func (w *orientMixed) config() serverConfig {
	return serverConfig{store: true, cacheEntries: w.size.cacheEntries}
}

func (w *orientMixed) clients() int { return generatorConns() }

// setup requests every pool entry once (all misses) and remembers each
// artifact's bytes.
func (w *orientMixed) setup(ctx context.Context, r *run) {
	w.warmSHA = make([][32]byte, len(w.pool))
	w.freshSeen = make(map[int]mixedSeen)
	var wg sync.WaitGroup
	for c := range w.clients() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(w.pool) && ctx.Err() == nil; i += w.clients() {
				q := w.pool[i]
				rep, ok := r.op(ctx, call{method: http.MethodPost, path: "/orient", body: q.body},
					opInfo{class: "warm", group: q.family}, func(rep reply) error {
						if err := wantStatus(http.StatusOK)(rep); err != nil {
							return err
						}
						_, err := checkBinary(rep.body, q.digest, len(q.pts), q.b)
						return err
					})
				if ok {
					w.mu.Lock()
					w.warmSHA[i] = sha256.Sum256(rep.body)
					w.mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
}

// drive releases each arrival at its scheduled time to one of clients()
// connections; when both are busy the arrival waits, and its latency,
// timed from the schedule, includes the wait.
func (w *orientMixed) drive(ctx context.Context, r *run, d time.Duration) {
	start := time.Now()
	work := make(chan slot)
	var wg sync.WaitGroup
	for range w.clients() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				w.send(ctx, r, s, start.Add(s.at))
			}
		}()
	}
	for _, s := range w.sched {
		if s.at >= d {
			break
		}
		if wait := time.Until(start.Add(s.at)); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		work <- s
	}
	close(work)
	wg.Wait()
}

func (w *orientMixed) send(ctx context.Context, r *run, s slot, due time.Time) {
	if s.pool {
		q, want := w.pool[s.idx], w.warmSHA[s.idx] // written by setup, which has returned
		r.op(ctx, call{method: http.MethodPost, path: "/orient", body: q.body, due: due, open: true},
			opInfo{class: "orient", group: q.family}, func(rep reply) error {
				if err := wantStatus(http.StatusOK)(rep); err != nil {
					return err
				}
				if sha256.Sum256(rep.body) != want {
					return fmt.Errorf("pool entry %d: X-Cache %s body differs from its first answer", s.idx, rep.hdr.Get("X-Cache"))
				}
				return nil
			})
		return
	}
	q := w.fresh[s.idx]
	rep, ok := r.op(ctx, call{method: http.MethodPost, path: "/orient", body: q.body, due: due, open: true},
		opInfo{class: "orient", group: q.family}, func(rep reply) error {
			if err := wantStatus(http.StatusOK)(rep); err != nil {
				return err
			}
			if got := rep.hdr.Get("X-Cache"); got != "miss" {
				return fmt.Errorf("fresh request answered from %q, want miss", got)
			}
			_, err := checkBinary(rep.body, q.digest, len(q.pts), q.b)
			return err
		})
	if ok {
		w.mu.Lock()
		w.freshSeen[s.idx] = mixedSeen{traceID: rep.traceID, body: rep.body}
		w.mu.Unlock()
	}
}

// audit re-verifies the last three fresh artifacts independently and
// repeats the last two, which are recent enough to be in the memory tier
// and must come from it with the miss's bytes.
func (w *orientMixed) audit(ctx context.Context, r *run) {
	var recent []int
	for i := len(w.fresh) - 1; i >= 0 && len(recent) < 3; i-- {
		if _, ok := w.freshSeen[i]; ok {
			recent = append(recent, i)
		}
	}
	for j, i := range recent {
		seen, q := w.freshSeen[i], w.fresh[i]
		sol, err := solution.DecodeBinary(seen.body)
		if err == nil {
			err = reverify(sol, q.pts, q.b)
		}
		r.check("orient-mixed re-verify", err)
		if j >= 2 {
			continue
		}
		want := sha256.Sum256(seen.body)
		r.op(ctx, call{method: http.MethodPost, path: "/orient", body: q.body},
			opInfo{class: "repeat", group: q.family}, func(rep reply) error {
				if err := wantStatus(http.StatusOK)(rep); err != nil {
					return err
				}
				if got := rep.hdr.Get("X-Cache"); got != "memory" {
					return fmt.Errorf("repeat answered from %q, want memory", got)
				}
				if sha256.Sum256(rep.body) != want {
					return fmt.Errorf("repeat body differs from the miss's bytes")
				}
				return nil
			})
	}
}

// recovered asks for two pool entries after a restart: the memory tier
// is empty, so they must come from the durable store, byte-identical.
func (w *orientMixed) recovered(ctx context.Context, r *run) {
	for i := 0; i < 2 && i < len(w.pool); i++ {
		q, want := w.pool[i], w.warmSHA[i]
		r.op(ctx, call{method: http.MethodPost, path: "/orient", body: q.body},
			opInfo{class: "recovered", group: q.family}, func(rep reply) error {
				if err := wantStatus(http.StatusOK)(rep); err != nil {
					return err
				}
				if got := rep.hdr.Get("X-Cache"); got != "disk" {
					return fmt.Errorf("after restart answered from %q, want disk", got)
				}
				if sha256.Sum256(rep.body) != want {
					return fmt.Errorf("after restart the body differs from the first answer")
				}
				return nil
			})
	}
}

func (w *orientMixed) probes() []probeInput {
	var out []probeInput
	for i := 0; i < len(w.fresh) && len(out) < mixedProbes; i++ {
		if seen, ok := w.freshSeen[i]; ok && seen.traceID != "" {
			out = append(out, probeInput{traceID: seen.traceID, pts: w.fresh[i].pts, b: w.fresh[i].b})
		}
	}
	return out
}

func (w *orientMixed) scheduleHash() string {
	var buf bytes.Buffer
	fmt.Fprintln(&buf, w.sched)
	for _, q := range append(append([]mixedReq(nil), w.pool...), w.fresh...) {
		fmt.Fprintf(&buf, "%s %s %s\n", q.family, q.b, q.digest)
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
}
