package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/antenna"
	"repro/internal/geom"
	"repro/internal/mst"
)

// Connectivity is the kind of connectivity an orienter promises for the
// induced transmission digraph.
type Connectivity int

const (
	// ConnStrong: the induced digraph is strongly connected.
	ConnStrong Connectivity = iota
	// ConnSymmetric: some set of bidirectional (mutual) edges already
	// connects every sensor — strictly stronger than ConnStrong, and the
	// property bounded-angle spanning trees are built for.
	ConnSymmetric
)

// String renders the connectivity kind.
func (c Connectivity) String() string {
	if c == ConnSymmetric {
		return "symmetric"
	}
	return "strong"
}

// Guarantee is what an orienter promises, a priori, for a budget (k, φ)
// inside its supported region. The verifier turns these claims into
// independent checks; an orienter whose output ever exceeds its Guarantee
// is broken, no matter what its self-report says.
type Guarantee struct {
	Conn     Connectivity
	Stretch  float64 // max antenna radius in units of l_max
	Antennae int     // max antennae actually used per sensor (≤ k)
	Spread   float64 // max total spread actually used per sensor (≤ φ)
	StrongC  int     // certified strong c-connectivity (1 = plain strong)
}

// OrienterInfo describes a registered orienter for listings, docs, and
// benchmarks.
type OrienterInfo struct {
	Name    string
	Summary string
	Region  string  // human-readable supported (k, φ) region
	Source  string  // literature the construction follows
	RepK    int     // representative budget inside the region,
	RepPhi  float64 // used by benchmarks and smoke tests
}

// Orienter is one antenna-orientation algorithm: a named construction
// with an explicit supported (k, φ) region and an a-priori guarantee for
// every budget in that region. All registered orienters answer to the
// same independent verifier (package verify), which is the source of
// truth for their correctness.
type Orienter interface {
	Info() OrienterInfo
	// Supports reports whether the construction applies at budget (k, φ).
	Supports(k int, phi float64) bool
	// Guarantee returns the promise for (k, φ); ok is false outside the
	// supported region.
	Guarantee(k int, phi float64) (Guarantee, bool)
	// Orient builds the EMST of pts and runs OrientCtx on it without a
	// deadline. Callers must not rely on the self-reported Result for
	// correctness — use package verify.
	Orient(pts []geom.Point, k int, phi float64) (*antenna.Assignment, *Result, error)
	// OrientCtx runs the construction on tree, the max-degree-5 EMST of
	// the points tree.Pts (mst.Euclidean). Every construction starts from
	// that tree, so a caller builds it once and shares it: the engine
	// hands one tree to the orienter or to every race candidate at once,
	// and constructions only read it. An already-done context is refused
	// up front, and constructions with cancellation checkpoints abandon
	// the solve with ctx.Err() at the next one instead of burning the
	// abandoned computation to completion. Orientation is pure CPU work,
	// so checkpoint granularity is per-construction — today the tour
	// 2-opt repair loop (the long pole at large n) polls every few
	// accepted moves; the other constructions run to completion once
	// started.
	OrientCtx(ctx context.Context, tree *mst.Tree, k int, phi float64) (*antenna.Assignment, *Result, error)
}

// DefaultOrienterName selects the paper's Table-1 dispatcher.
const DefaultOrienterName = "table1"

// KPhi is one (antenna count, spread budget) sample.
type KPhi struct {
	K   int
	Phi float64
}

// PortfolioBudgets is the (k, φ) grid the portfolio comparison and the
// cross-algorithm test harness sweep: every Table-1 regime boundary plus
// interior points, so each orienter is exercised across its whole
// supported region.
func PortfolioBudgets() []KPhi {
	return []KPhi{
		{1, 0}, {1, math.Pi}, {1, 1.3 * math.Pi}, {1, Phi1Full},
		{2, 0}, {2, Phi2Min}, {2, math.Pi}, {2, Phi2Full},
		{3, 0}, {3, Phi3Full},
		{4, 0}, {4, Phi4Full},
		{5, 0},
	}
}

var (
	registryMu sync.RWMutex
	registry   = make(map[string]Orienter)
)

// RegisterOrienter adds an orienter to the portfolio. It panics on an
// empty name or a duplicate registration — both are programming errors.
func RegisterOrienter(o Orienter) {
	name := o.Info().Name
	if name == "" {
		panic("core: orienter with empty name")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("core: orienter %q registered twice", name))
	}
	registry[name] = o
}

// LookupOrienter returns the named orienter.
func LookupOrienter(name string) (Orienter, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	o, ok := registry[name]
	return o, ok
}

// OrienterNames returns the registered names in sorted order.
func OrienterNames() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Orienters returns every registered orienter, sorted by name.
func Orienters() []Orienter {
	names := OrienterNames()
	out := make([]Orienter, 0, len(names))
	for _, n := range names {
		o, _ := LookupOrienter(n)
		out = append(out, o)
	}
	return out
}

// funcOrienter adapts plain functions to the Orienter interface; every
// built-in construction registers through it.
type funcOrienter struct {
	info      OrienterInfo
	supports  func(k int, phi float64) bool
	guarantee func(k int, phi float64) Guarantee
	orient    func(ctx context.Context, tree *mst.Tree, k int, phi float64) (*antenna.Assignment, *Result, error)
}

func (f *funcOrienter) Info() OrienterInfo { return f.info }

func (f *funcOrienter) Supports(k int, phi float64) bool {
	if k < 1 || phi < 0 || math.IsNaN(phi) || math.IsInf(phi, 0) {
		return false
	}
	return f.supports(k, phi)
}

func (f *funcOrienter) Guarantee(k int, phi float64) (Guarantee, bool) {
	if !f.Supports(k, phi) {
		return Guarantee{}, false
	}
	return f.guarantee(k, phi), true
}

func (f *funcOrienter) Orient(pts []geom.Point, k int, phi float64) (*antenna.Assignment, *Result, error) {
	return f.OrientCtx(context.Background(), mst.Euclidean(pts), k, phi)
}

func (f *funcOrienter) OrientCtx(ctx context.Context, tree *mst.Tree, k int, phi float64) (*antenna.Assignment, *Result, error) {
	if !f.Supports(k, phi) {
		return nil, nil, fmt.Errorf("core: orienter %q does not support k=%d phi=%.6f", f.info.Name, k, phi)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	return f.orient(ctx, tree, k, phi)
}

// tourStretch is the proven bottleneck of the constructive tour: hops in
// the cube of the MST span at most three tree edges (Sekanina).
const tourStretch = 3

// table1Branch couples one arm of the Table-1 dispatcher with the
// guarantee that arm provides, so the construction Orient runs and the
// claim dispatchGuarantee declares can never diverge. repair names the
// arm's incremental-repair class (see RepairClass).
type table1Branch struct {
	matches   func(k int, phi float64) bool
	guarantee func(k int, phi float64) Guarantee
	run       func(ctx context.Context, tree *mst.Tree, k int, phi float64) (*antenna.Assignment, *Result, error)
	repair    string
}

// dispatchBranches is the Table-1 dispatch in paper order; the final
// (tour) branch matches everything, so dispatchBranchFor always finds
// one. See the Orient doc comment for the regime map.
var dispatchBranches = []table1Branch{
	{ // Lemma 1 / Theorem 2 full cover, and the k ≥ 5 folklore row.
		matches: func(k int, phi float64) bool {
			return k >= 5 || phi >= theorem2Threshold(k)-geom.AngleEps
		},
		guarantee: coverGuarantee,
		run:       runCover,
		repair:    RepairClassEMST,
	},
	{ // Theorem 6: four zero-spread chains.
		matches:   func(k int, phi float64) bool { return k == 4 },
		guarantee: chainsGuarantee,
		run: func(_ context.Context, tree *mst.Tree, k int, phi float64) (*antenna.Assignment, *Result, error) {
			asg, res := OrientFourAntennae(tree, phi)
			return asg, res, nil
		},
	},
	{ // Theorem 5: three zero-spread chains.
		matches:   func(k int, phi float64) bool { return k == 3 },
		guarantee: chainsGuarantee,
		run: func(_ context.Context, tree *mst.Tree, k int, phi float64) (*antenna.Assignment, *Result, error) {
			asg, res := OrientThreeAntennae(tree, phi)
			return asg, res, nil
		},
	},
	{ // Theorem 3 (both parts).
		matches: func(k int, phi float64) bool { return k == 2 && phi >= Phi2Min-geom.AngleEps },
		guarantee: func(k int, phi float64) Guarantee {
			s, _ := Bound(2, phi)
			return Guarantee{Conn: ConnStrong, Stretch: s, Antennae: 2, Spread: phi, StrongC: 1}
		},
		run: func(_ context.Context, tree *mst.Tree, k int, phi float64) (*antenna.Assignment, *Result, error) {
			asg, res := OrientTwoAntennae(tree, phi)
			return asg, res, nil
		},
	},
	{ // The [4] anchored arc.
		matches:   func(k int, phi float64) bool { return k == 1 && phi >= math.Pi-geom.AngleEps },
		guarantee: arcGuarantee,
		run:       runArc,
	},
	{ // φ too small for the inductions: the bottleneck-tour rows.
		matches:   func(k int, phi float64) bool { return true },
		guarantee: tourGuarantee,
		run:       runTour,
		repair:    RepairClassTour,
	},
}

// Incremental-repair classes: the locality structure a construction
// exposes, which decides how the live-instance tier (internal/instance)
// repairs a mutated deployment without a from-scratch solve.
const (
	// RepairClassEMST: per-sensor sectors are a pure function of that
	// sensor's own EMST neighborhood (the full-cover rule), so re-running
	// the rule for just the spliced tree's dirty sensors reproduces the
	// from-scratch assignment exactly.
	RepairClassEMST = "emst"
	// RepairClassTour: sectors are rays along a maintained Hamiltonian
	// cycle; churn sites splice into the cycle (route.SpliceTour) and a
	// local 2-opt restores the 3·l_max hop bound around the dirty windows.
	RepairClassTour = "tour"
	// RepairClassBats: one wedge per sensor covering its EMST neighbors;
	// only wedges whose rooted-tree neighborhood changed re-aim, valid
	// while a single φ-wedge still covers every neighborhood.
	RepairClassBats = "bats"
)

// RepairClass reports the incremental-repair class of the named orienter
// at budget (k, φ): RepairClassEMST, RepairClassTour, RepairClassBats, or
// "" when that row only full-solves (the chain inductions, the anchored
// arc, and Damian–Flatland's gadgets are built from global structure).
// For the Table-1 dispatcher the class follows the arm the budget
// dispatches to, so it can never diverge from the construction that runs.
func RepairClass(algo string, k int, phi float64) string {
	if k < 1 || phi < 0 || math.IsNaN(phi) || math.IsInf(phi, 0) {
		return ""
	}
	switch algo {
	case "cover":
		if o, ok := LookupOrienter("cover"); ok && o.Supports(k, phi) {
			return RepairClassEMST
		}
	case "tour":
		return RepairClassTour
	case "bats":
		if o, ok := LookupOrienter("bats"); ok && o.Supports(k, phi) {
			return RepairClassBats
		}
	case DefaultOrienterName:
		return dispatchBranchFor(k, phi).repair
	}
	return ""
}

// EMSTLocalBudget reports whether the named orienter at budget (k, φ)
// runs the full-cover construction, whose per-sensor sectors are a pure
// function of that sensor's own EMST neighborhood (CoverSectors over the
// tree-neighbor rays). That locality is what makes live-instance repair
// exact (internal/instance): re-running the rule for just the sensors
// whose EMST neighborhood changed reproduces the from-scratch assignment,
// so a spliced revision verifies identically to a full solve.
func EMSTLocalBudget(algo string, k int, phi float64) bool {
	return RepairClass(algo, k, phi) == RepairClassEMST
}

// dispatchBranchFor returns the Table-1 branch for (k, φ); the tour
// fallback matches everything.
func dispatchBranchFor(k int, phi float64) table1Branch {
	for _, b := range dispatchBranches {
		if b.matches(k, phi) {
			return b
		}
	}
	panic("core: no dispatch branch matched") // unreachable: the tour branch matches all
}

// dispatchGuarantee is the Orient dispatcher's a-priori claim, derived
// from the same branch table the dispatcher runs.
func dispatchGuarantee(k int, phi float64) Guarantee {
	return dispatchBranchFor(k, phi).guarantee(k, phi)
}

// coverGuarantee: full cover bidirects every MST edge (symmetric) at
// radius l_max; Lemma 1 caps the spread at 2π(5−k)/5 on a max-degree-5
// tree, which also bounds the antennae by the degree.
func coverGuarantee(k int, phi float64) Guarantee {
	return Guarantee{Conn: ConnSymmetric, Stretch: 1, Antennae: min(k, 5), Spread: theorem2Threshold(k), StrongC: 1}
}

// chainsGuarantee covers Theorems 5 and 6: zero-spread rays, Table-1
// stretch.
func chainsGuarantee(k int, phi float64) Guarantee {
	s, _ := Bound(k, phi)
	return Guarantee{Conn: ConnStrong, Stretch: s, Antennae: k, Spread: 0, StrongC: 1}
}

// arcGuarantee covers the single anchored arc of [4].
func arcGuarantee(k int, phi float64) Guarantee {
	s, _ := Bound(1, phi)
	return Guarantee{Conn: ConnStrong, Stretch: s, Antennae: 1, Spread: phi, StrongC: 1}
}

// tourGuarantee covers the directed-tour construction: with two rays
// the cycle is bidirected, which upgrades the claim to symmetric and
// strongly 2-connected.
func tourGuarantee(k int, phi float64) Guarantee {
	g := Guarantee{Conn: ConnStrong, Stretch: tourStretch, Antennae: min(k, 2), Spread: 0, StrongC: 1}
	if k >= 2 {
		g.Conn = ConnSymmetric
		g.StrongC = 2
	}
	return g
}

// runCover, runArc and runTour are the constructions the Table-1
// dispatcher's arms share with the registered "cover", "k1" and "tour"
// orienters.
func runCover(_ context.Context, tree *mst.Tree, k int, phi float64) (*antenna.Assignment, *Result, error) {
	asg, res := OrientFullCover(tree, k, phi, false)
	return asg, res, nil
}

func runArc(_ context.Context, tree *mst.Tree, k int, phi float64) (*antenna.Assignment, *Result, error) {
	asg, res := OrientOneAntenna(tree, phi)
	return asg, res, nil
}

// runTour threads the solve's context into the 2-opt repair loop: an
// expired request stops the optimization at the next checkpoint instead
// of burning the abandoned solve to completion.
func runTour(ctx context.Context, tree *mst.Tree, k int, phi float64) (*antenna.Assignment, *Result, error) {
	tour, _, err := BestTourCtx(ctx, tree)
	if err != nil {
		return nil, nil, err
	}
	asg, res := OrientTour(tree, tour, k, phi)
	res.Bound = tourStretch
	res.Guarantee = tourStretch
	return asg, res, nil
}

func init() {
	RegisterOrienter(&funcOrienter{
		info: OrienterInfo{
			Name:    DefaultOrienterName,
			Summary: "Table-1 dispatcher: strongest applicable row of the source paper",
			Region:  "k ≥ 1, φ ≥ 0",
			Source:  "source paper Table 1",
			RepK:    2,
			RepPhi:  math.Pi,
		},
		supports:  func(k int, phi float64) bool { return true },
		guarantee: dispatchGuarantee,
		orient:    OrientCtx,
	})

	RegisterOrienter(&funcOrienter{
		info: OrienterInfo{
			Name:    "cover",
			Summary: "Theorem 2 full cover: every MST edge bidirected at radius l_max",
			Region:  "k ≥ 1, φ ≥ 2π(5−k)/5",
			Source:  "source paper Lemma 1 / Theorem 2",
			RepK:    2,
			RepPhi:  Phi2Full,
		},
		supports: func(k int, phi float64) bool {
			return phi >= theorem2Threshold(k)-geom.AngleEps
		},
		guarantee: coverGuarantee,
		orient:    runCover,
	})

	RegisterOrienter(&funcOrienter{
		info: OrienterInfo{
			Name:    "k1",
			Summary: "single anchored arc per sensor (the [4] rows of Table 1)",
			Region:  "k ≥ 1 (uses 1), φ ≥ π",
			Source:  "[4] via source paper §2",
			RepK:    1,
			RepPhi:  math.Pi,
		},
		supports: func(k int, phi float64) bool {
			return phi >= math.Pi-geom.AngleEps
		},
		guarantee: arcGuarantee,
		orient:    runArc,
	})

	RegisterOrienter(&funcOrienter{
		info: OrienterInfo{
			Name:    "tour",
			Summary: "zero-spread rays along a bottleneck Hamiltonian cycle",
			Region:  "k ≥ 1, φ ≥ 0",
			Source:  "[14] via Sekanina tours (DESIGN.md §6)",
			RepK:    1,
			RepPhi:  0,
		},
		supports:  func(k int, phi float64) bool { return true },
		guarantee: tourGuarantee,
		orient:    runTour,
	})
}
