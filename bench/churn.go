package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/geom"
	"repro/internal/instance"
	"repro/internal/pointset"
	"repro/internal/solution"
)

// churn-fleet and churn-large: closed-loop clients mutate live instances
// with dynamics.ChurnBatch(2 drifts, 1 join, 1 failure) batches, so the
// instance size never changes, and read them back. Each client owns the
// instances i ≡ c (mod clients), so every instance's revision sequence,
// and with it every check, is deterministic.

type churnSize struct {
	n        int
	families []string
	budgets  []budget
	perCell  int // instances per family × budget
	clients  int
	// weights deals PATCH, GET and delta GET in exact blocks.
	weights []int
	// stale is how many of every 20 PATCHes carry a stale If-Match and
	// must answer 409.
	stale int
	wal   bool
	// roundRobin visits the client's instances in turn instead of at
	// random.
	roundRobin bool
	audits     int // instances re-verified after the window
	maxProbes  int
}

// churnSide is the deployment square churned sensors land in, the
// generator families' coordinate scale (as in cmd/fleetsim).
const churnSide = 12

// churnBudgets are the instance budgets: the three incremental repair
// classes (emst, bats, tour) and tworay, which full-solves every batch.
func churnBudgets(names ...string) []budget {
	all := map[string]budget{}
	for _, spec := range []struct {
		algo string
		k    int
		phi  float64
	}{{"cover", 2, core.Phi2Full}, {"bats", 1, core.Phi1Full}, {"tour", 1, 0}, {"tworay", 2, 0}} {
		b, ok := namedBudget(spec.algo, spec.k, spec.phi)
		if !ok {
			panic("churn budget " + spec.algo + " unsupported")
		}
		all[spec.algo] = b
	}
	var out []budget
	for _, n := range names {
		out = append(out, all[n])
	}
	return out
}

// churnFleetSize spans every generator family except line: incremental
// repairs of line instances took up to 30s per batch (bench/README.md,
// "Findings"), so a handful of them would decide a whole run.
func churnFleetSize(n, perCell int) churnSize {
	var families []string
	for _, f := range pointset.WorkloadNames() {
		if f != "line" {
			families = append(families, f)
		}
	}
	return churnSize{
		n: n, families: families, budgets: churnBudgets("cover", "bats", "tour", "tworay"),
		perCell: perCell, clients: generatorConns(), weights: []int{12, 5, 3}, stale: 1, wal: true,
		audits: 4, maxProbes: 24,
	}
}

func churnLargeSize(n int) churnSize {
	return churnSize{
		n: n, families: []string{"uniform", "clusters"}, budgets: churnBudgets("cover", "bats", "tour"),
		perCell: 1, clients: 1, weights: []int{1, 0, 0}, roundRobin: true,
		audits: 1, maxProbes: 3,
	}
}

type liveInst struct {
	id         string
	family     string
	b          budget
	repairable bool // the budget has an incremental repair class
	initial    []geom.Point
	body       []byte // create request

	// Client-side shadow of the server's state, owned by one client.
	pts         []geom.Point
	rev         uint64
	createTrace string
}

type churn struct {
	seed  int64
	size  churnSize
	insts []*liveInst
}

func newChurn(seed int64, size churnSize) *churn {
	w := &churn{seed: seed, size: size}
	for _, f := range size.families {
		for _, b := range size.budgets {
			for range size.perCell {
				i := len(w.insts)
				in := &liveInst{id: fmt.Sprintf("c%04d", i), family: f, b: b,
					repairable: core.RepairClass(b.resolved, b.k, b.phi) != ""}
				in.initial = genPoints(f, subSeed(seed, 6, i), size.n)
				in.body = createBody(in.id, in.initial, b)
				w.insts = append(w.insts, in)
			}
		}
	}
	return w
}

func (w *churn) config() serverConfig { return serverConfig{wal: w.size.wal} }
func (w *churn) clients() int         { return w.size.clients }

// owned lists client c's instances.
func (w *churn) owned(c int) []*liveInst {
	var out []*liveInst
	for i := c; i < len(w.insts); i += w.size.clients {
		out = append(out, w.insts[i])
	}
	return out
}

// revisionReply is the create/PATCH response envelope.
type revisionReply struct {
	Rev      uint64 `json:"rev"`
	N        int    `json:"n"`
	Verified bool   `json:"verified"`
}

func checkRevision(rep reply, status int, rev uint64, n int) error {
	if err := wantStatus(status)(rep); err != nil {
		return err
	}
	var got revisionReply
	if err := json.Unmarshal(rep.body, &got); err != nil {
		return fmt.Errorf("decode revision: %w", err)
	}
	switch {
	case got.Rev != rev:
		return fmt.Errorf("acknowledged rev %d, want %d", got.Rev, rev)
	case !got.Verified:
		return fmt.Errorf("rev %d not verified", got.Rev)
	case got.N != n:
		return fmt.Errorf("rev %d has n=%d, want %d", got.Rev, got.N, n)
	}
	return nil
}

// setup creates every instance, each client its own, in order.
func (w *churn) setup(ctx context.Context, r *run) {
	var wg sync.WaitGroup
	for c := range w.size.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, in := range w.owned(c) {
				if ctx.Err() != nil {
					return
				}
				in.pts, in.rev = in.initial, 0
				rep, ok := r.op(ctx, call{method: http.MethodPost, path: "/instances", body: in.body},
					opInfo{class: "create", group: in.family, key: in.id}, func(rep reply) error {
						return checkRevision(rep, http.StatusCreated, 1, len(in.initial))
					})
				if ok {
					in.rev, in.createTrace = 1, rep.traceID
				}
			}
		}()
	}
	wg.Wait()
}

// churnOp is one scheduled operation.
type churnOp struct {
	kind  int // 0 PATCH, 1 GET, 2 delta GET
	in    *liveInst
	stale bool
	ops   []instance.Op
}

// opStream is a client's deterministic operation sequence. It depends on
// the seed alone: batches keep the instance size fixed, so no operation
// needs the server's answer to the previous one.
type opStream struct {
	rng   *rand.Rand
	kinds *mixer
	stale *mixer
	own   []*liveInst
	turn  int // round-robin position
}

func (w *churn) stream(c int) *opStream {
	rng := rand.New(rand.NewSource(subSeed(w.seed, 7, c)))
	return &opStream{
		rng:   rng,
		kinds: &mixer{rng: rng, weights: w.size.weights},
		stale: &mixer{rng: rng, weights: []int{20 - w.size.stale, w.size.stale}},
		own:   w.owned(c),
	}
}

func (s *opStream) next(roundRobin bool) churnOp {
	op := churnOp{kind: s.kinds.next()}
	if roundRobin {
		op.in = s.own[s.turn%len(s.own)]
		s.turn++
	} else {
		op.in = s.own[s.rng.Intn(len(s.own))]
	}
	if op.kind == 0 {
		op.stale = s.stale.next() == 1
		op.ops = dynamics.ChurnBatch(s.rng, len(op.in.initial), 2, 1, 1, churnSide)
	}
	return op
}

func (w *churn) drive(ctx context.Context, r *run, d time.Duration) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := range w.size.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := w.stream(c)
			due := time.Now()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				w.exec(ctx, r, s.next(w.size.roundRobin), due)
				due = time.Now()
			}
		}()
	}
	wg.Wait()
}

func (w *churn) exec(ctx context.Context, r *run, op churnOp, due time.Time) {
	in := op.in
	path := "/instances/" + in.id
	switch {
	case op.kind == 0 && op.stale:
		stale := in.rev - 1
		if in.rev < 2 {
			stale = in.rev + 1
		}
		r.op(ctx, call{method: http.MethodPatch, path: path, body: patchBody(op.ops),
			ifMatch: strconv.FormatUint(stale, 10), due: due},
			opInfo{class: "conflict", group: in.family, key: in.id}, wantStatus(http.StatusConflict))
	case op.kind == 0:
		_, ok := r.op(ctx, call{method: http.MethodPatch, path: path, body: patchBody(op.ops),
			ifMatch: strconv.FormatUint(in.rev, 10), due: due},
			opInfo{class: "patch", group: in.family, key: in.id, repairable: in.repairable}, func(rep reply) error {
				return checkRevision(rep, http.StatusOK, in.rev+1, len(in.initial))
			})
		if ok {
			pts, err := solution.ApplyPointOps(in.pts, op.ops)
			if err != nil {
				r.check("apply batch to the shadow copy", err)
				return
			}
			in.pts, in.rev = pts, in.rev+1
		}
	case op.kind == 2 && in.rev >= 2:
		digest := solution.Digest(in.pts)
		r.op(ctx, call{method: http.MethodGet, path: path + "?delta=1", due: due},
			opInfo{class: "delta", group: in.family, key: in.id}, func(rep reply) error {
				if err := checkETag(rep, in.rev); err != nil {
					return err
				}
				info, err := solution.DecodeDeltaInfo(rep.body)
				if err != nil {
					return fmt.Errorf("decode delta: %w", err)
				}
				if info.NewDigest != digest {
					return fmt.Errorf("delta leads to %.12s, shadow copy is %.12s", info.NewDigest, digest)
				}
				return nil
			})
	default: // GET, or a delta of revision 1, which has no base
		digest := solution.Digest(in.pts)
		r.op(ctx, call{method: http.MethodGet, path: path, due: due},
			opInfo{class: "read", group: in.family, key: in.id}, func(rep reply) error {
				if err := checkETag(rep, in.rev); err != nil {
					return err
				}
				sol, err := solution.DecodeJSON(rep.body)
				if err != nil {
					return fmt.Errorf("decode artifact: %w", err)
				}
				return checkSolution(sol, digest, len(in.pts), in.b)
			})
	}
}

func patchBody(ops []instance.Op) []byte {
	return mustJSON(struct {
		Ops []instance.Op `json:"ops"`
	}{ops})
}

// checkETag wants a 200 whose ETag is the acknowledged revision.
func checkETag(rep reply, rev uint64) error {
	if err := wantStatus(http.StatusOK)(rep); err != nil {
		return err
	}
	got, err := strconv.ParseUint(strings.Trim(rep.hdr.Get("ETag"), `"`), 10, 64)
	if err != nil {
		return fmt.Errorf("bad ETag %q", rep.hdr.Get("ETag"))
	}
	if got != rev {
		return fmt.Errorf("ETag rev %d, acknowledged %d", got, rev)
	}
	return nil
}

// audit fetches one instance per budget and re-verifies it
// independently over the shadow copy of its points.
func (w *churn) audit(ctx context.Context, r *run) {
	for i := 0; i < w.size.audits && i*w.size.perCell < len(w.insts); i++ {
		in := w.insts[i*w.size.perCell]
		digest := solution.Digest(in.pts)
		rep, ok := r.op(ctx, call{method: http.MethodGet, path: "/instances/" + in.id},
			opInfo{class: "audit", group: in.family, key: in.id}, func(rep reply) error {
				return checkETag(rep, in.rev)
			})
		if !ok {
			continue
		}
		sol, err := solution.DecodeJSON(rep.body)
		if err == nil {
			err = checkSolution(sol, digest, len(in.pts), in.b)
		}
		if err == nil {
			err = reverify(sol, in.pts, in.b)
		}
		r.check("re-verify "+in.id, err)
	}
}

// recovered holds a restarted server to the write-ahead log's contract:
// every instance back at exactly its acknowledged revision, verified,
// and nothing else.
func (w *churn) recovered(ctx context.Context, r *run) {
	if !w.size.wal {
		return
	}
	var list []struct {
		ID       string `json:"id"`
		Rev      uint64 `json:"rev"`
		Verified bool   `json:"verified"`
	}
	_, ok := r.op(ctx, call{method: http.MethodGet, path: "/instances"}, opInfo{class: "recovered"},
		func(rep reply) error {
			if err := wantStatus(http.StatusOK)(rep); err != nil {
				return err
			}
			return json.Unmarshal(rep.body, &list)
		})
	if !ok {
		return
	}
	got := make(map[string]int, len(list))
	for i, s := range list {
		got[s.ID] = i
	}
	for _, in := range w.insts {
		i, found := got[in.id]
		var err error
		switch {
		case !found:
			err = fmt.Errorf("lost: acknowledged rev %d, not recovered", in.rev)
		case list[i].Rev != in.rev:
			err = fmt.Errorf("recovered rev %d, acknowledged %d", list[i].Rev, in.rev)
		case !list[i].Verified:
			err = fmt.Errorf("recovered rev %d not verified", list[i].Rev)
		}
		delete(got, in.id)
		r.check("recover "+in.id, err)
	}
	for id := range got {
		r.check("recover", fmt.Errorf("phantom instance %q", id))
	}
}

// probes times the first instance of each family × budget cell.
func (w *churn) probes() []probeInput {
	var out []probeInput
	for i := 0; i < len(w.insts) && len(out) < w.size.maxProbes; i += w.size.perCell {
		if in := w.insts[i]; in.createTrace != "" {
			out = append(out, probeInput{traceID: in.createTrace, pts: in.initial, b: in.b})
		}
	}
	return out
}

func (w *churn) scheduleHash() string {
	var buf bytes.Buffer
	for _, in := range w.insts {
		fmt.Fprintf(&buf, "%s %s %s %s\n", in.id, in.family, in.b, solution.Digest(in.initial))
	}
	for c := range w.size.clients {
		s := w.stream(c)
		for range 32 {
			op := s.next(w.size.roundRobin)
			fmt.Fprintf(&buf, "%d %s %d %s %v\n", c, op.in.id, op.kind, strconv.FormatBool(op.stale), op.ops)
		}
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
}
