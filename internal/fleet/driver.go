package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/geom"
	"repro/internal/instance"
	"repro/internal/pointset"
	"repro/internal/service"
	"repro/internal/solution"
)

// The soak drives the whole stack in this process: a service.Engine
// (both cache tiers, single-flight, negative cache) and an
// instance.Manager solving through it, WAL-backed so kill/recover
// cycles exercise real recovery. Because everything is in-process, a
// -race build soaks the whole stack under the race detector, which is
// how CI runs it.

// classify maps an engine or manager error onto the recorder's outcome
// vocabulary: everything it does not name counts as unexpected, the
// soak's failure signal.
func classify(err error) outcome {
	switch {
	case err == nil:
		return outcomeOK
	case errors.Is(err, instance.ErrConflict):
		// Stale If-Match (409), expected for the injected contention slice.
		return outcomeConflict
	case errors.Is(err, instance.ErrNotFound), errors.Is(err, instance.ErrExists),
		errors.Is(err, instance.ErrEvicted):
		// Benign lifecycle races under churn: not-found after a
		// concurrent delete, exists during a concurrent re-create,
		// evicted history behind a delta request.
		return outcomeRace
	case errors.Is(err, instance.ErrFull), errors.Is(err, instance.ErrDurability),
		errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// Deadline expiry or drain (503), expected for the injected
		// short-deadline slice.
		return outcomeDeadline
	default:
		return outcomeUnexpected
	}
}

// genSpec asks for a generated deployment (mirrors the wire "gen"
// object, so the soak poses the problems a client would).
type genSpec struct {
	Workload string
	N        int
	Seed     int64
	K        int
	Phi      float64
	Algo     string
}

// genPoints materializes a spec's deployment, identically to the
// server's gen handling (same generator, same seeding).
func genPoints(g genSpec) []geom.Point {
	rng := rand.New(rand.NewSource(g.Seed))
	return pointset.Workload(g.Workload, rng, g.N)
}

// driver owns the engine and the instance manager the soak's traffic
// runs against.
type driver struct {
	eng  *service.Engine
	mcfg instance.Config

	mu  sync.RWMutex
	mgr *instance.Manager
}

// newDriver wires the engine and a WAL-backed manager. The WAL policy
// is SyncAlways so that the durable state at a kill equals the
// acknowledged state — the recovery audit then demands exact revision
// equality, not best-effort.
func newDriver(cfg Config) (*driver, error) {
	var store *solution.Store
	if cfg.StoreDir != "" {
		var err error
		if store, err = solution.OpenStore(cfg.StoreDir, cfg.StoreBytes); err != nil {
			return nil, fmt.Errorf("fleet: open store: %w", err)
		}
	}
	eng := service.NewEngine(service.Options{Store: store})
	mcfg := instance.Config{
		Solve:        eng.InstanceSolver(),
		History:      cfg.History,
		MaxInstances: cfg.Instances + cfg.churnPool() + 64,
	}
	if cfg.WALDir != "" {
		mcfg.WAL = &instance.WALConfig{Dir: cfg.WALDir, Policy: instance.SyncAlways}
	}
	return &driver{eng: eng, mcfg: mcfg, mgr: instance.NewManager(mcfg)}, nil
}

func (d *driver) manager() *instance.Manager {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.mgr
}

// Create builds a named instance and returns its first revision plus
// the materialized sensor count (generator families do not all honor
// N exactly — grid rounds to a square, star fields size by arm count —
// and mutation index bounds must follow the real count).
func (d *driver) Create(ctx context.Context, id string, g genSpec) (uint64, int, error) {
	snap, err := d.manager().Create(ctx, id, genPoints(g), instance.Budget{K: g.K, Phi: g.Phi, Algo: g.Algo})
	if err != nil {
		return 0, 0, err
	}
	return snap.Rev, snap.Sol.N, nil
}

// Patch applies a mutation batch; repair is the X-Repair vocabulary
// (incremental, full, none).
func (d *driver) Patch(ctx context.Context, id string, ifMatch uint64, ops []instance.Op) (uint64, string, error) {
	snap, err := d.manager().Apply(ctx, id, ifMatch, ops)
	if err != nil {
		return 0, "", err
	}
	return snap.Rev, snap.Repair, nil
}

// Get reads the current revision. Get, Delta and Delete take the
// operation's context like the rest, so every operation draws from the
// same deadline mix, though the manager serves them without blocking.
func (d *driver) Get(ctx context.Context, id string) (uint64, error) {
	snap, err := d.manager().Get(id, 0)
	if err != nil {
		return 0, err
	}
	return snap.Rev, nil
}

// Delta fetches the delta from rev to current.
func (d *driver) Delta(ctx context.Context, id string, rev uint64) error {
	_, err := d.manager().Delta(id, rev)
	return err
}

// Delete drops an instance.
func (d *driver) Delete(ctx context.Context, id string) error {
	if !d.manager().Delete(id) {
		return instance.ErrNotFound
	}
	return nil
}

// Kill closes the manager. Traffic is quiesced first by the runner;
// under SyncAlways every acknowledged revision is already on stable
// storage, so the WAL left behind is exactly what a SIGKILL at this
// moment would leave.
func (d *driver) Kill() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.mgr.Close()
}

// Recover builds a fresh manager over the same WAL root and replays
// it, as a restarted process would, returning how many instances it
// recovered.
func (d *driver) Recover(ctx context.Context) (int, error) {
	m := instance.NewManager(d.mcfg)
	n, err := m.Recover(ctx)
	if err != nil {
		return n, err
	}
	d.mu.Lock()
	d.mgr = m
	d.mu.Unlock()
	return n, nil
}

// Close releases the manager (after the final audit).
func (d *driver) Close() error {
	return d.manager().Close()
}
