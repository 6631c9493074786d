// Package instance manages long-lived, mutable network instances behind
// the orientation engine: deployments where sensors join, fail, and move
// while the network keeps serving. A Manager owns named instances — each
// a point set, a budget, a selection mode, and the current verified
// solution artifact — and a mutation log drives them forward: every
// Add/Remove/Move batch produces a new monotonically increasing revision
// whose artifact is re-verified before it is published.
//
// The point of the package is **incremental repair**. Constructions
// that expose locality (core.RepairClass) let a small mutation batch be
// served without a from-scratch solve. Three classes are maintained:
// the EMST class (full cover — every sensor's sectors are a pure
// function of its own EMST neighborhood) splices the maintained tree
// exactly (mst.SpliceEMST) and re-aims only the sensors whose tree
// neighborhood changed; the tour class (the φ=0 bottleneck-cycle rows)
// splices churn sites into the maintained Hamiltonian cycle
// (route.SpliceTour) and repairs the hop bound with a dirty-window
// 2-opt (route.LocalTwoOpt) before re-aiming only the rays whose cycle
// neighbor changed; the bats class (one bounded-angle wedge per sensor)
// re-covers only the wedges whose EMST neighborhood changed, while the
// wedge regime holds. Every repaired revision is audited by a
// maintained incremental verifier (verify.Incremental) that carries the
// induced digraph and the connectivity verdict across revisions in
// O(dirty · local density), with a periodic from-scratch verify.Check
// escape hatch (Config.VerifyAuditEvery); the revision falls back to a
// full engine solve whenever the dirty fraction crosses the configured
// threshold, the splice bails, or the audit fails. Budgets without a
// repair class always take the full-solve path — correctness first,
// locality when the mathematics allows it.
//
// Revisions retain their full artifacts in a bounded history window and
// are also served as ADLT deltas (solution.EncodeDelta): base digest,
// the mutation batch, and only the changed sector lists. The churn
// equivalence property — at every revision the repaired solution's
// verification record matches a from-scratch engine solve on the same
// point set — is enforced by the harness in churn_test.go.
package instance

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/geom"
	"repro/internal/plan"
	"repro/internal/solution"
)

// Budget is an instance's solve configuration: the (k, φ) antenna budget
// plus the selection mode — an explicit registered orienter, or an
// objective for the planner.
type Budget struct {
	K   int
	Phi float64
	// Algo names a registered orienter; empty selects by Objective.
	Algo string
	// Objective drives planner selection when Algo is empty.
	Objective plan.Objective
}

// SolveFunc runs one full engine solve — validate, plan, orient, verify,
// cache — for an instance's budget. The service layer adapts
// service.Engine.Solve to this signature so the package needs no
// dependency on the engine.
type SolveFunc func(ctx context.Context, pts []geom.Point, b Budget) (*solution.Solution, error)

// Config configures a Manager.
type Config struct {
	// Solve is the full-solve path; required.
	Solve SolveFunc
	// RepairThreshold is the dirty fraction (re-aimed sensors / n) above
	// which an incremental repair is abandoned for a full solve. Zero
	// selects DefaultRepairThreshold; negative disables repair entirely
	// (every batch full-solves — the benchmark baseline).
	RepairThreshold float64
	// History bounds retained revisions per instance (≤ 0 selects
	// DefaultHistory). Older revisions are evicted; the current revision
	// is always retained.
	History int
	// MaxInstances bounds live instances (≤ 0 selects DefaultMaxInstances).
	MaxInstances int
	// MaxOps bounds ops per mutation batch (≤ 0 selects DefaultMaxOps).
	MaxOps int
	// VerifyAuditEvery is the incremental verifier's escape hatch: every
	// Nth repaired revision the maintained verdict is re-derived by a
	// from-scratch verify.Check (with an independently recomputed l_max)
	// and compared; a divergence invalidates the repair state, counts in
	// antennad_verify_incremental_divergence_total, and falls the batch
	// back to a full solve. Zero selects DefaultVerifyAuditEvery;
	// negative disables the audit (trust the maintained verdict fully).
	VerifyAuditEvery int
	// WAL, when non-nil, makes the manager crash-durable: creates and
	// mutation batches are logged (wal.go) before they are acknowledged,
	// and Recover replays the log at startup. Nil keeps the tier purely
	// in-memory.
	WAL *WALConfig
}

// Defaults for Config fields.
const (
	DefaultRepairThreshold  = 0.25
	DefaultHistory          = 32
	DefaultMaxInstances     = 256
	DefaultMaxOps           = 4096
	DefaultVerifyAuditEvery = 64
)

// Repair kinds recorded per revision and rendered in the X-Repair header.
const (
	// RepairFull: the revision was produced by a full engine solve.
	RepairFull = "full"
	// RepairIncremental: the revision was produced by EMST splice +
	// localized re-orientation, verified against the same budgets.
	RepairIncremental = "incremental"
	// RepairNone marks revision 1 (instance creation).
	RepairNone = "none"
	// RepairRecovered marks a revision restored by WAL replay after a
	// restart: the artifact was re-derived by a full engine solve over
	// the replayed pointset and re-verified.
	RepairRecovered = "recovered"
)

// Package errors, matched with errors.Is by the HTTP layer.
var (
	// ErrNotFound: no such instance, or no such revision.
	ErrNotFound = errors.New("instance: not found")
	// ErrConflict: a conditional Apply named a stale revision (HTTP 409).
	ErrConflict = errors.New("instance: revision conflict")
	// ErrEvicted: the revision predates the retained history window.
	ErrEvicted = errors.New("instance: revision evicted from history")
	// ErrExists: Create named an id that is already live.
	ErrExists = errors.New("instance: id already exists")
	// ErrFull: the manager is at MaxInstances.
	ErrFull = errors.New("instance: manager at capacity")
	// ErrDurability: the WAL could not make a create or batch durable;
	// the mutation was not acknowledged and the revision not bumped
	// (HTTP 503 — retryable once the disk recovers).
	ErrDurability = errors.New("instance: durability failure")
)

// Op aliases the wire-level mutation op; see solution.PointOp for the
// sequential index semantics.
type Op = solution.PointOp

// Snapshot is one published revision of an instance.
type Snapshot struct {
	ID  string
	Rev uint64
	// Sol is the revision's full verified artifact.
	Sol *solution.Solution
	// Repair records how the revision was produced (RepairFull,
	// RepairIncremental, or RepairNone for revision 1).
	Repair string
	// Class names the repair class that served a RepairIncremental
	// revision (core.RepairClassEMST, ...Tour, ...Bats); empty otherwise.
	Class string
	// DirtyFrac is the fraction of sensors re-aimed by the revision's
	// repair (meaningful for RepairIncremental; 1 for full solves of a
	// mutated instance).
	DirtyFrac float64
	// Changed counts sensors whose sector lists differ from the previous
	// revision after index remapping.
	Changed int
	// Elapsed is the server-side latency of producing the revision.
	Elapsed time.Duration
}

// Summary is one row of a Manager listing.
type Summary struct {
	ID       string  `json:"id"`
	Rev      uint64  `json:"rev"`
	N        int     `json:"n"`
	K        int     `json:"k"`
	Phi      float64 `json:"phi"`
	Algo     string  `json:"algo"`
	Verified bool    `json:"verified"`
	Repairs  uint64  `json:"repairs"`
	Fulls    uint64  `json:"full_solves"`
}

// validateBudget rejects malformed budgets before any instance exists.
func validateBudget(b Budget) error {
	if b.K < 1 {
		return fmt.Errorf("instance: k must be ≥ 1, got %d", b.K)
	}
	if b.Phi < 0 {
		return fmt.Errorf("instance: spread budget must be ≥ 0, got %v", b.Phi)
	}
	return nil
}
