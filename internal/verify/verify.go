// Package verify is the independent ground truth for orientation
// algorithms: given only the point set, the antenna assignment, and the
// claimed budgets (k, φ, radius bound), it rebuilds the induced
// transmission digraph and checks every property the paper promises. It
// deliberately shares no logic with the constructions in package core.
package verify

import (
	"fmt"
	"strings"

	"repro/internal/antenna"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/par"
)

// Budgets are the claims to verify. They mirror core.Guarantee without
// importing it: the verifier must stay independent of the constructions
// it audits.
type Budgets struct {
	K           int     // max antennae per sensor
	Phi         float64 // max total spread per sensor (radians)
	RadiusBound float64 // max antenna radius in units of l_max (≤ 0 disables the check)
	StrongC     int     // strong c-connectivity to audit (≤ 1 means plain); failure is an error
	Symmetric   bool    // require the mutual (bidirectional) edges alone to connect the network
	// KnownLMax, when positive, supplies the EMST bottleneck l_max
	// instead of recomputing it from scratch. The caller vouches for the
	// value: the engine (internal/service) passes the bottleneck of the
	// mst.Euclidean tree it builds once per solve, read before the
	// orienter sees that tree — the same quantity Check would recompute —
	// so every structural check (connectivity, spread, antenna counts,
	// the radius ratio against KnownLMax) still runs in full; only the
	// duplicate tree build is skipped. The live-instance repair path
	// leaves it unset and supplies each revision's l_max to
	// Incremental.Apply instead.
	KnownLMax float64
}

// Report is the outcome of verification.
type Report struct {
	Strong      bool
	SCCCount    int
	LargestSCC  int
	LMax        float64
	MaxRadius   float64
	MaxSpread   float64
	MaxAntennas int
	RadiusRatio float64 // MaxRadius / LMax
	Edges       int
	CConnected  bool // only meaningful when Budgets.StrongC > 1
	Symmetric   bool // only meaningful when Budgets.Symmetric is set
	Errors      []string
}

// OK reports whether every requested property held.
func (r *Report) OK() bool { return len(r.Errors) == 0 }

// String renders the report compactly.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "strong=%v sccs=%d radius=%.4f (ratio %.4f) spread=%.4f antennas=%d edges=%d",
		r.Strong, r.SCCCount, r.MaxRadius, r.RadiusRatio, r.MaxSpread, r.MaxAntennas, r.Edges)
	for _, e := range r.Errors {
		fmt.Fprintf(&b, "\n  ERROR: %s", e)
	}
	return b.String()
}

func (r *Report) errorf(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// Check verifies the assignment against the budgets.
func Check(asg *antenna.Assignment, b Budgets) *Report {
	rep := &Report{}
	if err := asg.Validate(); err != nil {
		rep.errorf("invalid assignment: %v", err)
		return rep
	}
	n := asg.N()
	g := asg.InducedDigraph()
	rep.Edges = g.NumEdges()
	// For symmetric budgets the mutual-edge audit runs first: mutual
	// edges connecting every vertex imply strong connectivity outright
	// (each mutual edge is a directed edge both ways), so the SCC pass is
	// provably redundant and skipped. A failed symmetric audit falls
	// through to the full SCC analysis so the report stays exact.
	if b.Symmetric && SymmetricConnected(g) {
		rep.Symmetric = true
		rep.Strong = true
		rep.SCCCount = 1
		if rep.LargestSCC = n; n == 0 {
			rep.SCCCount = 0
		}
	} else {
		comp, ncomp := graph.TarjanSCC(g)
		rep.SCCCount = ncomp
		sizes := make(map[int]int)
		for _, c := range comp {
			sizes[c]++
		}
		for _, s := range sizes {
			if s > rep.LargestSCC {
				rep.LargestSCC = s
			}
		}
		rep.Strong = n <= 1 || ncomp == 1
		if !rep.Strong {
			rep.errorf("induced digraph has %d strongly connected components (n=%d)", ncomp, n)
		}
	}

	rep.MaxAntennas = asg.MaxAntennas()
	if b.K > 0 && rep.MaxAntennas > b.K {
		rep.errorf("a sensor uses %d antennae, budget %d", rep.MaxAntennas, b.K)
	}
	rep.MaxSpread = asg.MaxSpread()
	if rep.MaxSpread > b.Phi+1e-7 {
		rep.errorf("a sensor uses spread %.6f, budget %.6f", rep.MaxSpread, b.Phi)
	}
	rep.MaxRadius = asg.MaxRadius()
	if n > 1 {
		if b.KnownLMax > 0 {
			rep.LMax = b.KnownLMax
		} else {
			rep.LMax = mst.Euclidean(asg.Pts).LMax()
		}
		if rep.LMax > 0 {
			rep.RadiusRatio = rep.MaxRadius / rep.LMax
		}
		if b.RadiusBound > 0 && rep.RadiusRatio > b.RadiusBound+1e-7 {
			rep.errorf("radius ratio %.6f exceeds bound %.6f", rep.RadiusRatio, b.RadiusBound)
		}
	}
	if b.StrongC > 1 {
		rep.CConnected = graph.StronglyCConnected(g, b.StrongC)
		if !rep.CConnected {
			rep.errorf("induced digraph is not strongly %d-connected", b.StrongC)
		}
	}
	if b.Symmetric && !rep.Symmetric {
		// The fast path above did not certify symmetry; re-audit for the
		// record and report the failure.
		rep.Symmetric = SymmetricConnected(g)
		if !rep.Symmetric {
			rep.errorf("mutual (bidirectional) edges do not connect the network")
		}
	}
	return rep
}

// SymmetricConnected reports whether the subgraph of mutual edges (u→v
// present together with v→u) connects every vertex — the property
// bounded-angle-tree orientations promise, strictly stronger than strong
// connectivity.
func SymmetricConnected(g *graph.Digraph) bool {
	n := g.N
	if n <= 1 {
		return true
	}
	// The mutual-edge discovery — a reverse-adjacency scan per directed
	// edge — is the expensive half; it reads only the frozen adjacency, so it fans
	// out over fixed vertex blocks into per-block buffers (one inline
	// block below symParMin). The union pass stays serial: connectivity
	// (dsu.Sets) is invariant under union order.
	workers := par.Workers(0)
	if n < symParMin {
		workers = 1
	}
	mutual := make([][][2]int32, (n+symBlock-1)/symBlock)
	par.For(workers, n, symBlock, func(lo, hi int) {
		var buf [][2]int32
		for u := lo; u < hi; u++ {
			for _, v := range g.Adj[u] {
				if u < v && g.HasEdge(v, u) {
					buf = append(buf, [2]int32{int32(u), int32(v)})
				}
			}
		}
		mutual[lo/symBlock] = buf
	})
	dsu := graph.NewDSU(n)
	for _, buf := range mutual {
		for _, e := range buf {
			dsu.Union(int(e[0]), int(e[1]))
		}
	}
	return dsu.Sets() == 1
}

// symParMin is the vertex count below which SymmetricConnected scans
// serially; fan-out overhead beats the win on small digraphs.
const symParMin = 4096

// symBlock is SymmetricConnected's fan-out grain in vertices.
const symBlock = 2048

// CheckStrong is the minimal check: the induced digraph is strongly
// connected.
func CheckStrong(asg *antenna.Assignment) bool {
	return graph.StronglyConnected(asg.InducedDigraph())
}
