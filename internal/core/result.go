// Package core implements the paper's contribution: constructive
// algorithms that orient k directional antennae per sensor (1 ≤ k ≤ 5),
// with angular spreads summing to at most φ_k, so that the induced
// transmission digraph is strongly connected — one algorithm per row of
// the paper's Table 1:
//
//   - Lemma 1 / Theorem 2 covers (radius 1 for φ_k ≥ 2π(5−k)/5),
//   - Theorem 3 part 1 (k=2, φ₂ ≥ π, radius 2·sin(2π/9)),
//   - Theorem 3 part 2 (k=2, 2π/3 ≤ φ₂ < π, radius 2·sin(π/2 − φ₂/4)),
//   - Theorem 5 (k=3, zero spread, radius √3),
//   - Theorem 6 (k=4, zero spread, radius √2),
//   - the prior-work k=1 rows ([4]) and the bottleneck-TSP rows ([14]).
//
// Every algorithm consumes a max-degree-5 Euclidean MST and records
// per-case counters plus any violated geometric invariant in a Result;
// the verifier package is the independent ground truth.
package core

import (
	"fmt"
	"math"
	"strings"
)

// Table-1 spread thresholds (sums of antenna angles).
var (
	// Phi1Full is 8π/5: one antenna of this spread reaches radius 1.
	Phi1Full = 8 * math.Pi / 5
	// Phi2Full is 6π/5: two antennae reach radius 1 (Theorem 2, k=2).
	Phi2Full = 6 * math.Pi / 5
	// Phi3Full is 4π/5 (Theorem 2, k=3).
	Phi3Full = 4 * math.Pi / 5
	// Phi4Full is 2π/5 (Theorem 2, k=4).
	Phi4Full = 2 * math.Pi / 5
	// Phi2Main is π, the spread of Theorem 3 part 1.
	Phi2Main = math.Pi
	// Phi2Min is 2π/3, the smallest spread handled by Theorem 3 part 2.
	Phi2Min = 2 * math.Pi / 3
)

// Bound returns the paper's upper bound on antenna radius (in units of
// l_max) for k antennae with total spread phi, together with the Table-1
// source of the bound. It mirrors Table 1 exactly; for spreads between
// table rows the strongest applicable row is used.
func Bound(k int, phi float64) (float64, string) {
	switch {
	case k <= 0:
		return math.Inf(1), "invalid"
	case k == 1:
		switch {
		case phi >= Phi1Full:
			return 1, "[4] phi>=8pi/5"
		case phi >= math.Pi:
			return 2 * math.Sin(math.Pi-phi/2), "[4] pi<=phi<8pi/5"
		default:
			return 2, "[14] bottleneck TSP"
		}
	case k == 2:
		switch {
		case phi >= Phi2Full:
			return 1, "Theorem 2 (k=2)"
		case phi >= Phi2Main:
			return 2 * math.Sin(2*math.Pi/9), "Theorem 3.1"
		case phi >= Phi2Min:
			return 2 * math.Sin(math.Pi/2-phi/4), "Theorem 3.2"
		default:
			return 2, "[14] bottleneck TSP"
		}
	case k == 3:
		if phi >= Phi3Full {
			return 1, "Theorem 2 (k=3)"
		}
		return math.Sqrt(3), "Theorem 5"
	case k == 4:
		if phi >= Phi4Full {
			return 1, "Theorem 2 (k=4)"
		}
		return math.Sqrt(2), "Theorem 6"
	default: // k >= 5
		return 1, "folklore (k=5)"
	}
}

// Result reports what an orientation algorithm did: the theoretical bound
// it promises, the radius it actually needed, per-case counters for the
// proof's case analysis, and any geometric invariants that failed (which
// indicates a non-MST input or a bug — the verifier treats these as
// errors).
type Result struct {
	Algorithm  string
	K          int
	Phi        float64
	LMax       float64        // bottleneck MST edge (absolute units)
	Bound      float64        // paper bound in units of LMax
	Guarantee  float64        // bound our implementation proves (≥ Bound only for the [14] rows, where the faithful construction needs Fleischner's theorem; see DESIGN.md §6)
	RadiusUsed float64        // max antenna radius used (absolute units)
	SpreadUsed float64        // max per-sensor total spread used
	Cases      map[string]int // proof-case counters
	Violations []string       // failed invariants (expected empty)
}

// newResult initializes a Result.
func newResult(alg string, k int, phi float64) *Result {
	b, _ := Bound(k, phi)
	return &Result{
		Algorithm: alg,
		K:         k,
		Phi:       phi,
		Bound:     b,
		Guarantee: b,
		Cases:     make(map[string]int),
	}
}

// RadiusRatio returns RadiusUsed normalized by LMax — the quantity Table 1
// bounds. Zero when LMax is zero (degenerate instance).
func (r *Result) RadiusRatio() float64 {
	if r.LMax <= 0 {
		return 0
	}
	return r.RadiusUsed / r.LMax
}

// WithinBound reports whether the used radius respects the paper bound
// with relative tolerance tol.
func (r *Result) WithinBound(tol float64) bool {
	if r.LMax <= 0 {
		return true
	}
	return r.RadiusRatio() <= r.Bound*(1+tol)+tol
}

// bump increments a proof-case counter.
func (r *Result) bump(c string) { r.Cases[c]++ }

// checkf records a violated invariant when cond is false.
func (r *Result) checkf(cond bool, format string, args ...any) {
	if !cond {
		r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	}
}

// String renders a compact summary.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s k=%d phi=%.4f bound=%.4f used=%.4f (ratio %.4f)",
		r.Algorithm, r.K, r.Phi, r.Bound, r.RadiusUsed, r.RadiusRatio())
	if len(r.Violations) > 0 {
		fmt.Fprintf(&b, " VIOLATIONS=%d", len(r.Violations))
	}
	return b.String()
}
