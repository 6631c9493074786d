package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/geom"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/pointset"
	"repro/internal/service"
	"repro/internal/solution"
)

// inprocDriver runs the whole stack in this process: a service.Engine
// (both cache tiers, single-flight, negative cache) and an
// instance.Manager solving through it, WAL-backed so kill/recover
// cycles exercise real recovery. Because everything is in-process, the
// soak runs under the race detector — this is the mode CI uses.
type inprocDriver struct {
	eng  *service.Engine
	mcfg instance.Config

	mu  sync.RWMutex
	mgr *instance.Manager
}

// newInprocDriver wires the engine and a WAL-backed manager. The WAL
// policy is SyncAlways so that the durable state at a kill equals the
// acknowledged state — the recovery audit then demands exact revision
// equality, not best-effort.
func newInprocDriver(cfg Config) (*inprocDriver, error) {
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
	return &inprocDriver{eng: eng, mcfg: mcfg, mgr: instance.NewManager(mcfg)}, nil
}

func (d *inprocDriver) manager() *instance.Manager {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.mgr
}

// genPoints materializes a spec's deployment, identically to the
// server's gen handling (same generator, same seeding).
func genPoints(g genSpec) []geom.Point {
	rng := rand.New(rand.NewSource(g.Seed))
	return pointset.Workload(g.Workload, rng, g.N)
}

func (d *inprocDriver) Orient(ctx context.Context, g genSpec) (string, error) {
	_, src, err := d.eng.Solve(ctx, service.Request{
		Pts: genPoints(g), K: g.K, Phi: g.Phi, Algo: g.Algo,
	})
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return "", errUnavailable
		}
		return "", err
	}
	return src.String(), nil
}

func (d *inprocDriver) Create(ctx context.Context, id string, spec instSpec) (uint64, int, error) {
	g := spec.Gen
	snap, err := d.manager().Create(ctx, id, genPoints(g), instance.Budget{K: g.K, Phi: g.Phi, Algo: g.Algo})
	if err != nil {
		return 0, 0, mapInstanceErr(err)
	}
	return snap.Rev, snap.Sol.N, nil
}

func (d *inprocDriver) Patch(ctx context.Context, id string, ifMatch uint64, ops []instance.Op) (uint64, string, error) {
	snap, err := d.manager().Apply(ctx, id, ifMatch, ops)
	if err != nil {
		return 0, "", mapInstanceErr(err)
	}
	return snap.Rev, snap.Repair, nil
}

func (d *inprocDriver) Get(ctx context.Context, id string) (uint64, error) {
	snap, err := d.manager().Get(id, 0)
	if err != nil {
		return 0, mapInstanceErr(err)
	}
	return snap.Rev, nil
}

func (d *inprocDriver) Delta(ctx context.Context, id string, rev uint64) error {
	_, err := d.manager().Delta(id, rev)
	return mapInstanceErr(err)
}

func (d *inprocDriver) Delete(ctx context.Context, id string) error {
	if !d.manager().Delete(id) {
		return errRace
	}
	return nil
}

// Kill closes the manager. Traffic is quiesced first by the runner;
// under SyncAlways every acknowledged revision is already on stable
// storage, so the WAL left behind is exactly what a SIGKILL at this
// moment would leave.
func (d *inprocDriver) Kill() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.mgr.Close()
}

// Recover builds a fresh manager over the same WAL root and replays
// it, as a restarted process would.
func (d *inprocDriver) Recover(ctx context.Context) (int, error) {
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

// ServerMetrics reads the backend's latency histograms directly — the
// fleet/v2 server-side view. The manager's histograms live on the
// manager a kill/recover cycle replaces, so in killed runs the churn
// figures cover the final phase only; the engine's survive the run.
func (d *inprocDriver) ServerMetrics(ctx context.Context) (map[string]obs.HistogramSnapshot, error) {
	em := d.eng.Metrics()
	im := d.manager().Metrics()
	return map[string]obs.HistogramSnapshot{
		"solve":    em.SolveSeconds.Snapshot(),
		"hit":      em.HitSeconds.Snapshot(),
		"churn":    im.ChurnSeconds.Snapshot(),
		"repair":   im.RepairSeconds.Snapshot(),
		"wal_sync": im.WALSyncSeconds.Snapshot(),
	}, nil
}

func (d *inprocDriver) Close() error {
	return d.manager().Close()
}
