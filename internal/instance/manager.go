package instance

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/solution"
)

// Manager owns the live instances of one process. All methods are safe
// for concurrent use; mutation batches on one instance serialize under
// that instance's lock, so revision numbers are deterministic and every
// revision's artifact reflects exactly one batch.
type Manager struct {
	cfg     Config
	metrics Metrics
	wal     *walManager // nil when durability is disabled

	mu     sync.RWMutex
	byID   map[string]*inst
	nextID uint64
	// reserved holds ids whose WAL directory is being written ahead of
	// publication, so a concurrent Create of the same id cannot clobber
	// the directory and the id stays taken across the unlocked write.
	reserved map[string]struct{}
}

// inst is one live instance. applyMu serializes mutation batches and is
// held across their (possibly long) solves; mu guards only the published
// state (pts, rev, history, repair state, deleted) and is held for
// microseconds, so Get, List, and the metrics renderer never wait behind
// an in-flight solve. Lock order: applyMu before mu.
type inst struct {
	applyMu sync.Mutex
	mu      sync.Mutex
	deleted bool

	id     string
	budget Budget

	pts []geom.Point
	rev uint64
	// wal is the instance's open durability state (nil when disabled).
	wal *instWAL
	// kit is the maintained repair substrate (EMST, assignment, cycle,
	// incremental verifier), present only while the construction is
	// repairable at the budget (nil after a fallback-ineligible solve or
	// an invalidated repair). Owned by applyMu, not mu: only Apply reads
	// or writes it, and batches serialize.
	kit *repairKit

	// history holds the most recent revisions, oldest first; the last
	// entry is the current revision.
	history []revision

	repairs, fulls uint64
}

// revision is one retained history entry.
type revision struct {
	rev     uint64
	sol     *solution.Solution
	ops     []Op // batch that produced it (nil for revision 1)
	repair  string
	class   string // repair class that served an incremental revision
	dirty   float64
	changed int
	elapsed time.Duration
}

// NewManager builds a manager; Config.Solve is required.
func NewManager(cfg Config) *Manager {
	if cfg.Solve == nil {
		panic("instance: Config.Solve is required")
	}
	if cfg.RepairThreshold == 0 {
		cfg.RepairThreshold = DefaultRepairThreshold
	}
	if cfg.History <= 0 {
		cfg.History = DefaultHistory
	}
	if cfg.MaxInstances <= 0 {
		cfg.MaxInstances = DefaultMaxInstances
	}
	if cfg.MaxOps <= 0 {
		cfg.MaxOps = DefaultMaxOps
	}
	if cfg.VerifyAuditEvery == 0 {
		cfg.VerifyAuditEvery = DefaultVerifyAuditEvery
	}
	m := &Manager{cfg: cfg, byID: make(map[string]*inst), reserved: make(map[string]struct{})}
	m.metrics.initMetrics(func() uint64 {
		// Delete unlists an instance before marking it deleted, so
		// byID holds exactly the live ones.
		m.mu.RLock()
		defer m.mu.RUnlock()
		return uint64(len(m.byID))
	})
	if cfg.WAL != nil {
		m.wal = newWALManager(*cfg.WAL, &m.metrics)
	}
	return m
}

// Close stops the durability layer: final sync of every open log, then
// the handles are closed. A manager without a WAL closes trivially.
func (m *Manager) Close() error {
	if m.wal == nil {
		return nil
	}
	return m.wal.close()
}

// Metrics exposes the manager's counters and histograms.
func (m *Manager) Metrics() *Metrics { return &m.metrics }

// Create registers a new instance and solves revision 1 through the full
// engine path. An empty id asks the manager to assign "i-<seq>".
func (m *Manager) Create(ctx context.Context, id string, pts []geom.Point, b Budget) (*Snapshot, error) {
	if err := validateBudget(b); err != nil {
		return nil, err
	}
	for i, p := range pts {
		if !finite(p) {
			return nil, fmt.Errorf("instance: point %d is not finite", i)
		}
	}
	// Cheap admission checks before the expensive solve. A concurrent
	// create can still race past them, so the reservation below
	// re-checks — these just keep the common rejections (full manager,
	// reused id) from burning a full solve each.
	m.mu.RLock()
	full := len(m.byID)+len(m.reserved) >= m.cfg.MaxInstances
	_, dup := m.byID[id]
	m.mu.RUnlock()
	if full {
		return nil, ErrFull
	}
	if dup {
		return nil, fmt.Errorf("%w: %q", ErrExists, id)
	}
	start := time.Now()
	sctx, endSolve := obs.StartSpan(ctx, "solve")
	sol, err := m.cfg.Solve(sctx, pts, b)
	endSolve()
	if err != nil {
		return nil, err
	}
	in := &inst{budget: b, pts: append([]geom.Point(nil), pts...), rev: 1}
	in.history = []revision{{rev: 1, sol: sol, repair: RepairNone, changed: sol.N, elapsed: time.Since(start)}}
	m.adoptRepairKit(in, sol)

	// Reserve the id so the WAL write below owns its directory
	// exclusively and the id stays taken while the lock is released;
	// publication consumes the reservation.
	m.mu.Lock()
	if len(m.byID)+len(m.reserved) >= m.cfg.MaxInstances {
		m.mu.Unlock()
		return nil, ErrFull
	}
	if id == "" {
		m.nextID++
		id = fmt.Sprintf("i-%d", m.nextID)
	} else if _, dup := m.byID[id]; dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrExists, id)
	} else if _, dup := m.reserved[id]; dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrExists, id)
	}
	in.id = id
	m.reserved[id] = struct{}{}
	m.mu.Unlock()

	// Write-ahead: the instance becomes durable (snapshot + empty log,
	// synced) before it becomes visible. A creation that cannot be made
	// durable is not acknowledged.
	if m.wal != nil {
		iw, werr := m.wal.create(id, b, in.pts, sol)
		if werr != nil {
			m.mu.Lock()
			delete(m.reserved, id)
			m.mu.Unlock()
			m.metrics.WALAppendErrors.Add(1)
			return nil, fmt.Errorf("%w: %v", ErrDurability, werr)
		}
		in.wal = iw
	}

	m.mu.Lock()
	delete(m.reserved, id)
	m.byID[id] = in
	m.mu.Unlock()

	m.metrics.Created.Add(1)
	in.mu.Lock() // the instance is published; snapshot under its lock
	defer in.mu.Unlock()
	return in.snapshotLocked(), nil
}

// Apply runs one mutation batch against the instance, producing the next
// revision. ifMatch, when non-zero, is a conditional write: the batch
// applies only if the instance is still at that revision (stale values
// answer ErrConflict, the HTTP 409). Batches on one instance serialize;
// each sees the points the previous batch left behind.
func (m *Manager) Apply(ctx context.Context, id string, ifMatch uint64, ops []Op) (*Snapshot, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("instance: empty mutation batch")
	}
	if len(ops) > m.cfg.MaxOps {
		return nil, fmt.Errorf("instance: batch of %d ops exceeds limit %d", len(ops), m.cfg.MaxOps)
	}
	for i, op := range ops {
		if (op.Op == solution.OpAdd || op.Op == solution.OpMove) && !finite(geom.Point{X: op.X, Y: op.Y}) {
			return nil, fmt.Errorf("instance: op %d: coordinates not finite", i)
		}
	}
	in, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	// applyMu serializes batches and stays held across the solve; the
	// state mutex is taken only around the reads and the final swap, so
	// concurrent Get/List/metrics never wait behind a solve. The state
	// read below is safe without further coordination: only Apply
	// mutates it, and Apply is serialized here.
	in.applyMu.Lock()
	defer in.applyMu.Unlock()
	in.mu.Lock()
	deleted, curRev := in.deleted, in.rev
	in.mu.Unlock()
	if deleted {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if ifMatch != 0 && ifMatch != curRev {
		m.metrics.Conflicts.Add(1)
		return nil, fmt.Errorf("%w: instance %q is at revision %d, not %d", ErrConflict, id, curRev, ifMatch)
	}

	start := time.Now()
	old2new, nNew, fresh, err := solution.PlanOps(len(in.pts), ops)
	if err != nil {
		return nil, err
	}
	newPts, err := solution.ApplyPointOps(in.pts, ops)
	if err != nil || len(newPts) != nNew {
		panic("instance: PlanOps and ApplyPointOps disagree") // same semantics by construction
	}
	m.metrics.Batches.Add(1)

	rev := revision{rev: curRev + 1, ops: append([]Op(nil), ops...)}
	var rs *repairState
	if m.cfg.RepairThreshold > 0 {
		rctx, endRepair := obs.StartSpan(ctx, "repair")
		rs = m.tryRepair(rctx, in, newPts, old2new, fresh)
		endRepair()
	}
	// On the repair path tryRepair already advanced in.kit to the new
	// revision; on the full-solve path the kit is rebuilt from the fresh
	// artifact below (after the WAL acknowledges the batch).
	var newKit *repairKit
	if rs != nil {
		rev.sol, rev.repair, rev.class, rev.dirty, rev.changed = rs.sol, RepairIncremental, rs.class, rs.dirtyFrac, rs.changed
		m.metrics.Repairs.Add(1)
		m.metrics.repairClassCounter(rs.class).Add(1)
	} else {
		sctx, endSolve := obs.StartSpan(ctx, "solve")
		sol, err := m.cfg.Solve(sctx, newPts, in.budget)
		endSolve()
		if err != nil {
			return nil, err // revision not bumped; the batch did not happen
		}
		rev.sol, rev.repair, rev.dirty = sol, RepairFull, 1
		rev.changed = changedSectors(in.currentSol(), sol, old2new)
		newKit = m.buildRepairKit(in.budget, sol, newPts)
		m.metrics.FullSolves.Add(1)
	}
	rev.elapsed = time.Since(start)

	// Write-ahead: the batch is logged (and, under SyncAlways, on stable
	// storage) before the revision becomes visible. A batch that cannot
	// be made durable is not acknowledged and the revision not bumped —
	// and a repaired kit, already advanced past the unacknowledged
	// revision, is dropped so the next batch rebuilds it consistently.
	if in.wal != nil {
		_, endWAL := obs.StartSpan(ctx, "wal")
		err := m.wal.append(in.wal, walRecord{
			rev: rev.rev, ops: rev.ops,
			digest: rev.sol.PointsDigest, verified: rev.sol.Verified,
		})
		if err != nil {
			endWAL()
			if rs != nil {
				in.kit = nil
			}
			return nil, fmt.Errorf("%w: %v", ErrDurability, err)
		}
		m.wal.maybeCompact(in.wal, in.id, rev.rev, in.budget, newPts, rev.sol)
		endWAL()
	}
	if rs == nil {
		in.kit = newKit
	}

	in.mu.Lock()
	in.pts = newPts
	in.rev = rev.rev
	if rs != nil {
		in.repairs++
	} else {
		in.fulls++
	}
	in.history = append(in.history, rev)
	if len(in.history) > m.cfg.History {
		in.history = in.history[len(in.history)-m.cfg.History:]
	}
	snap := in.snapshotLocked()
	in.mu.Unlock()

	m.metrics.DirtyFrac.Observe(rev.dirty)
	m.metrics.ChurnSeconds.ObserveDuration(rev.elapsed)
	if rs != nil {
		m.metrics.RepairSeconds.ObserveDuration(rev.elapsed)
	}
	return snap, nil
}

// Get returns a snapshot of the given revision (0 = current). Revisions
// older than the history window answer ErrEvicted.
func (m *Manager) Get(id string, rev uint64) (*Snapshot, error) {
	in, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.deleted {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	r, err := in.revisionLocked(rev)
	if err != nil {
		return nil, err
	}
	return &Snapshot{ID: in.id, Rev: r.rev, Sol: r.sol, Repair: r.repair, Class: r.class,
		DirtyFrac: r.dirty, Changed: r.changed, Elapsed: r.elapsed}, nil
}

// Delta returns the ADLT encoding of the given revision (0 = current)
// against its predecessor. Revision 1 has no base and answers an error.
func (m *Manager) Delta(id string, rev uint64) ([]byte, error) {
	in, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.deleted {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	r, err := in.revisionLocked(rev)
	if err != nil {
		return nil, err
	}
	if r.rev <= 1 {
		return nil, fmt.Errorf("instance: revision 1 has no delta base")
	}
	base, err := in.revisionLocked(r.rev - 1)
	if err != nil {
		return nil, err
	}
	return solution.EncodeDelta(base.sol, r.sol, r.ops)
}

// List returns a summary row per live instance, sorted by id.
func (m *Manager) List() []Summary {
	m.mu.RLock()
	insts := make([]*inst, 0, len(m.byID))
	for _, in := range m.byID {
		insts = append(insts, in)
	}
	m.mu.RUnlock()
	out := make([]Summary, 0, len(insts))
	for _, in := range insts {
		in.mu.Lock()
		if !in.deleted {
			sol := in.currentSol()
			out = append(out, Summary{ID: in.id, Rev: in.rev, N: len(in.pts),
				K: in.budget.K, Phi: in.budget.Phi, Algo: sol.Algo,
				Verified: sol.Verified, Repairs: in.repairs, Fulls: in.fulls})
		}
		in.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Delete removes an instance; false when it does not exist. Deletion
// serializes behind the instance's applyMu: an in-flight Apply either
// publishes (and logs) its revision entirely before the teardown, or
// observes `deleted` and answers ErrNotFound — it can never append a
// WAL record into a directory that is concurrently being removed, which
// would acknowledge a revision no recovery can replay. While the WAL
// directory is being removed the id stays reserved, so a Create of the
// same id cannot write a fresh directory the removal then clobbers; it
// answers ErrExists until the teardown finishes.
func (m *Manager) Delete(id string) bool {
	m.mu.Lock()
	in, ok := m.byID[id]
	if ok {
		delete(m.byID, id)
		if in.wal != nil {
			m.reserved[id] = struct{}{}
		}
	}
	m.mu.Unlock()
	if !ok {
		return false
	}
	in.applyMu.Lock()
	in.mu.Lock()
	in.deleted = true
	in.mu.Unlock()
	if in.wal != nil {
		m.wal.remove(in.id, in.wal)
		m.mu.Lock()
		delete(m.reserved, id)
		m.mu.Unlock()
	}
	in.applyMu.Unlock()
	m.metrics.Deleted.Add(1)
	return true
}

func (m *Manager) lookup(id string) (*inst, error) {
	m.mu.RLock()
	in, ok := m.byID[id]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return in, nil
}

// currentSol returns the latest revision's artifact; callers hold in.mu.
func (in *inst) currentSol() *solution.Solution {
	return in.history[len(in.history)-1].sol
}

// revisionLocked finds a retained revision; callers hold in.mu.
func (in *inst) revisionLocked(rev uint64) (*revision, error) {
	if rev == 0 {
		return &in.history[len(in.history)-1], nil
	}
	if rev > in.rev {
		return nil, fmt.Errorf("%w: instance %q has no revision %d (at %d)", ErrNotFound, in.id, rev, in.rev)
	}
	for i := range in.history {
		if in.history[i].rev == rev {
			return &in.history[i], nil
		}
	}
	return nil, fmt.Errorf("%w: instance %q revision %d (history keeps %d)", ErrEvicted, in.id, rev, len(in.history))
}

// snapshotLocked renders the current revision; callers hold in.mu (or
// exclusively own the inst, as Create does).
func (in *inst) snapshotLocked() *Snapshot {
	r := in.history[len(in.history)-1]
	return &Snapshot{ID: in.id, Rev: r.rev, Sol: r.sol, Repair: r.repair, Class: r.class,
		DirtyFrac: r.dirty, Changed: r.changed, Elapsed: r.elapsed}
}

// changedSectors counts sensors whose sector list differs from the
// previous revision after index remapping — the delta's payload size and
// the dynamics harness's churn measure.
func changedSectors(prev, next *solution.Solution, old2new []int) int {
	inherited := make([]int, next.N)
	for i := range inherited {
		inherited[i] = -1
	}
	for o, n := range old2new {
		if n >= 0 {
			inherited[n] = o
		}
	}
	changed := 0
	for i := 0; i < next.N; i++ {
		o := inherited[i]
		if o < 0 || !wireSectorsEqual(prev.Sectors[o], next.Sectors[i]) {
			changed++
		}
	}
	return changed
}

func wireSectorsEqual(a, b []solution.Sector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func finite(p geom.Point) bool {
	return !(isNaNOrInf(p.X) || isNaNOrInf(p.Y))
}

func isNaNOrInf(v float64) bool {
	return v != v || v > 1e308 || v < -1e308
}
