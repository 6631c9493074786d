package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/solution"
)

// solve-cold: one closed-loop client sends Table-1 solves on point sets
// it never repeats, so every request misses both cache tiers and the time
// goes to delaunay → emst → sector placement → verify. Inputs are a pure
// function of (seed, request index); each is built while the server is
// idle between requests, because a run's worth of point sets would not
// fit in memory at this size.

type coldSize struct {
	n int
}

type coldCombo struct {
	family string
	b      budget
}

type solveCold struct {
	seed   int64
	size   coldSize
	combos []coldCombo

	// Filled while driving (one client goroutine).
	firstSHA [][32]byte
	traceIDs []string
}

// coldFamilies are the deployment families solve-cold draws from.
var coldFamilies = []string{"uniform", "clusters", "annulus"}

// coldProbes is how many solve-cold requests the traced run times
// in-process.
const coldProbes = 12

func newSolveCold(seed int64, size coldSize) *solveCold {
	w := &solveCold{seed: seed, size: size}
	for _, row := range core.Table1Rows() {
		if row.K < 2 {
			continue
		}
		b, ok := namedBudget(core.DefaultOrienterName, row.K, row.Phi)
		if !ok {
			continue // (k=2, φ=0): brute-force 2-connectivity audit
		}
		for _, f := range coldFamilies {
			w.combos = append(w.combos, coldCombo{family: f, b: b})
		}
	}
	return w
}

// request is the i-th input: combos are dealt in a fresh shuffle per
// cycle, each with its own point set.
func (w *solveCold) request(i int) (coldCombo, []geom.Point) {
	cycle := i / len(w.combos)
	perm := rand.New(rand.NewSource(subSeed(w.seed, 1, cycle))).Perm(len(w.combos))
	c := w.combos[perm[i%len(w.combos)]]
	return c, genPoints(c.family, subSeed(w.seed, 2, i), w.size.n)
}

func (w *solveCold) config() serverConfig { return serverConfig{} }
func (w *solveCold) clients() int         { return 1 }

// setup sends one solve on a point set the window never uses, so the
// window starts on a server that has already paid its first-request
// costs (heap growth, lazily built tables).
func (w *solveCold) setup(ctx context.Context, r *run) {
	w.firstSHA, w.traceIDs = nil, nil
	c := w.combos[0]
	pts := genPoints(c.family, subSeed(w.seed, 3, 0), w.size.n)
	digest := solution.Digest(pts)
	r.op(ctx, call{method: http.MethodPost, path: "/orient", body: orientBody(pts, c.b)},
		opInfo{class: "warm", group: c.family}, func(rep reply) error {
			if err := wantStatus(http.StatusOK)(rep); err != nil {
				return err
			}
			_, err := checkBinary(rep.body, digest, len(pts), c.b)
			return err
		})
}

func (w *solveCold) drive(ctx context.Context, r *run, d time.Duration) {
	deadline := time.Now().Add(d)
	due := time.Now()
	for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		c, pts := w.request(i)
		digest := solution.Digest(pts)
		rep, ok := r.op(ctx, call{method: http.MethodPost, path: "/orient", body: orientBody(pts, c.b), due: due},
			opInfo{class: "solve", group: c.family}, func(rep reply) error {
				if err := wantStatus(http.StatusOK)(rep); err != nil {
					return err
				}
				if got := rep.hdr.Get("X-Cache"); got != "miss" {
					return fmt.Errorf("X-Cache %q on a fresh point set, want miss", got)
				}
				_, err := checkBinary(rep.body, digest, len(pts), c.b)
				return err
			})
		due = time.Now()
		if i < 2 && ok {
			w.firstSHA = append(w.firstSHA, sha256.Sum256(rep.body))
		}
		if len(w.traceIDs) < coldProbes && rep.traceID != "" {
			w.traceIDs = append(w.traceIDs, rep.traceID)
		}
	}
}

// audit repeats the first two requests, which must now be memory hits
// with the miss's exact bytes, and re-verifies them independently.
func (w *solveCold) audit(ctx context.Context, r *run) {
	for i, want := range w.firstSHA {
		c, pts := w.request(i)
		rep, ok := r.op(ctx, call{method: http.MethodPost, path: "/orient", body: orientBody(pts, c.b)},
			opInfo{class: "repeat", group: c.family}, func(rep reply) error {
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
		if ok {
			sol, err := solution.DecodeBinary(rep.body)
			if err == nil {
				err = reverify(sol, pts, c.b)
			}
			r.check("solve-cold re-verify", err)
		}
	}
}

func (w *solveCold) recovered(ctx context.Context, r *run) {}

func (w *solveCold) probes() []probeInput {
	var out []probeInput
	for i, id := range w.traceIDs {
		c, pts := w.request(i)
		out = append(out, probeInput{traceID: id, pts: pts, b: c.b})
	}
	return out
}

func (w *solveCold) scheduleHash() string {
	var buf bytes.Buffer
	for i := 0; i < 2*len(w.combos); i++ {
		c, pts := w.request(i)
		fmt.Fprintf(&buf, "%s %s %s\n", c.family, c.b, solution.Digest(pts))
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
}
