// Package plan selects orientation algorithms by objective instead of by
// name. A Planner consults the a-priori Guarantees declared by every
// registered core.Orienter, shortlists the algorithms whose guarantee
// satisfies an Objective at a budget (k, φ), and either picks the
// a-priori best or races the shortlist on the actual instance under a
// context deadline. The planner never trusts a construction's
// self-report: the winner is returned with its machine-checked Guarantee
// attached, and the engine layer (package service) verifies the artifact
// independently.
package plan

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/antenna"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/verify"
)

// Minimize is the quantity an Objective asks the planner to optimize
// among feasible orienters, using each orienter's declared guarantee.
type Minimize int

const (
	// MinStretch prefers the smallest guaranteed radius (× l_max).
	MinStretch Minimize = iota
	// MinAntennae prefers the fewest antennae actually used per sensor.
	MinAntennae
	// MinSpread prefers the smallest total angular spread actually used.
	MinSpread
)

// String renders the minimize criterion.
func (m Minimize) String() string {
	switch m {
	case MinAntennae:
		return "antennae"
	case MinSpread:
		return "spread"
	default:
		return "stretch"
	}
}

// ParseMinimize parses a minimize criterion name.
func ParseMinimize(s string) (Minimize, error) {
	switch s {
	case "", "stretch":
		return MinStretch, nil
	case "antennae", "antennas":
		return MinAntennae, nil
	case "spread":
		return MinSpread, nil
	}
	return 0, fmt.Errorf("plan: unknown minimize criterion %q (stretch|antennae|spread)", s)
}

// ParseConn parses a connectivity-kind name — the shared vocabulary of
// the antennactl flags and the antennad request schema.
func ParseConn(s string) (core.Connectivity, error) {
	switch s {
	case "", "strong":
		return core.ConnStrong, nil
	case "symmetric":
		return core.ConnSymmetric, nil
	}
	return 0, fmt.Errorf("plan: unknown connectivity %q (strong|symmetric)", s)
}

// Objective is what a caller wants from an orientation, independent of
// any algorithm name: the connectivity kind the deployment requires, the
// quantity to minimize among feasible algorithms, and an optional racing
// deadline under which the shortlist is run on the actual instance.
type Objective struct {
	// Conn is the required connectivity kind. ConnSymmetric demands that
	// the mutual edges alone connect the network; ConnStrong accepts any
	// strongly connected orientation (a symmetric guarantee satisfies it).
	Conn core.Connectivity
	// StrongC is the required strong c-connectivity (≤ 1 means plain).
	StrongC int
	// Minimize ranks the feasible shortlist.
	Minimize Minimize
	// Deadline, when positive, makes Plan race the shortlist on the
	// instance instead of picking a priori.
	Deadline time.Duration
}

// Key returns the canonical cache-key encoding of the objective. Two
// objectives with equal keys always produce the same a-priori decision.
// The racing deadline is part of the key: a race's outcome depends on
// both the instance (whose digest joins every cache key this string is
// part of) and on how long the candidates were given, so artifacts
// raced under different deadlines must not alias.
func (o Objective) Key() string {
	k := fmt.Sprintf("conn=%s,min=%s", o.Conn, o.Minimize)
	if o.StrongC > 1 {
		k += fmt.Sprintf(",c=%d", o.StrongC)
	}
	if o.Deadline > 0 {
		k += fmt.Sprintf(",race=%dns", o.Deadline.Nanoseconds())
	}
	return k
}

// SatisfiedBy reports whether a guarantee meets the objective's
// connectivity requirements.
func (o Objective) SatisfiedBy(g core.Guarantee) bool {
	if o.Conn == core.ConnSymmetric && g.Conn != core.ConnSymmetric {
		return false
	}
	if o.StrongC > 1 && g.StrongC < o.StrongC {
		return false
	}
	return true
}

// VerifyBudgets converts an orienter's a-priori guarantee into the
// verifier's independent claims. Every consumer of the engine — the
// service layer, the experiment harnesses, antennactl — audits through
// this one bridge, so they all hold an orienter to the same promise; the
// construction's self-reported Result is never trusted. (The bridge lives
// here rather than in verify, which deliberately does not import core.)
func VerifyBudgets(g core.Guarantee) verify.Budgets {
	return verify.Budgets{
		K:           g.Antennae,
		Phi:         g.Spread,
		RadiusBound: g.Stretch,
		StrongC:     g.StrongC, // brute-force audit; verify.Check skips it at ≤ 1
		Symmetric:   g.Conn == core.ConnSymmetric,
	}
}

// Candidate is one feasible (orienter, guarantee) pair in a shortlist,
// in planner rank order.
type Candidate struct {
	Name      string
	Guarantee core.Guarantee
}

// Rejection records why an orienter did not make the shortlist.
type Rejection struct {
	Name   string
	Reason string
}

// Decision is the planner's answer: the winning orienter with the
// guarantee it owes, the ranked shortlist it was chosen from, and the
// rejections, so a caller (or an operator reading /plan output) can see
// exactly why the portfolio collapsed to this algorithm.
type Decision struct {
	Winner    string
	Guarantee core.Guarantee
	Shortlist []Candidate
	Rejected  []Rejection
	// Raced is true when the winner was measured on the instance rather
	// than ranked a priori; Measured is then its observed max radius.
	Raced    bool
	Measured float64
	// WinnerAsg/WinnerRes carry the winning race run so the caller does
	// not orient the same instance a second time; nil on a-priori
	// decisions and race fallbacks.
	WinnerAsg *antenna.Assignment
	WinnerRes *core.Result
}

// Planner shortlists and selects orienters. The zero value consults the
// global core registry; Orienters can be overridden for tests.
type Planner struct {
	// Orienters returns the portfolio to plan over; nil selects
	// core.Orienters (sorted registry order, so decisions are stable).
	Orienters func() []core.Orienter
}

func (p *Planner) portfolio() []core.Orienter {
	if p != nil && p.Orienters != nil {
		return p.Orienters()
	}
	return core.Orienters()
}

// rankLess orders candidates by the objective's minimize criterion, with
// the remaining guarantee fields and finally the name as deterministic
// tie-breaks.
func rankLess(m Minimize, a, b Candidate) bool {
	type triple [3]float64
	key := func(c Candidate) triple {
		g := c.Guarantee
		switch m {
		case MinAntennae:
			return triple{float64(g.Antennae), g.Stretch, g.Spread}
		case MinSpread:
			return triple{g.Spread, g.Stretch, float64(g.Antennae)}
		default:
			return triple{g.Stretch, float64(g.Antennae), g.Spread}
		}
	}
	ka, kb := key(a), key(b)
	for i := range ka {
		if ka[i] != kb[i] {
			return ka[i] < kb[i]
		}
	}
	return a.Name < b.Name
}

// Shortlist returns the orienters whose declared guarantee at (k, φ)
// satisfies the objective, ranked best-first, together with the rejected
// orienters and the reasons.
func (p *Planner) Shortlist(obj Objective, k int, phi float64) ([]Candidate, []Rejection) {
	var feasible []Candidate
	var rejected []Rejection
	for _, o := range p.portfolio() {
		name := o.Info().Name
		g, ok := o.Guarantee(k, phi)
		if !ok {
			rejected = append(rejected, Rejection{
				Name:   name,
				Reason: fmt.Sprintf("budget (k=%d, phi=%.4f) outside region %s", k, phi, o.Info().Region),
			})
			continue
		}
		if !obj.SatisfiedBy(g) {
			rejected = append(rejected, Rejection{
				Name:   name,
				Reason: fmt.Sprintf("guarantee %s (c=%d) does not satisfy required %s (c=%d)", g.Conn, g.StrongC, obj.Conn, obj.StrongC),
			})
			continue
		}
		feasible = append(feasible, Candidate{Name: name, Guarantee: g})
	}
	sort.SliceStable(feasible, func(i, j int) bool { return rankLess(obj.Minimize, feasible[i], feasible[j]) })
	return feasible, rejected
}

// Plan picks the a-priori best feasible orienter for the objective at
// budget (k, φ). It is deterministic: equal inputs always select the same
// winner.
func (p *Planner) Plan(obj Objective, k int, phi float64) (Decision, error) {
	feasible, rejected := p.Shortlist(obj, k, phi)
	if len(feasible) == 0 {
		return Decision{Rejected: rejected}, fmt.Errorf(
			"plan: no registered orienter guarantees %s connectivity at k=%d phi=%.4f", obj.Conn, k, phi)
	}
	return Decision{
		Winner:    feasible[0].Name,
		Guarantee: feasible[0].Guarantee,
		Shortlist: feasible,
		Rejected:  rejected,
	}, nil
}

// raceOutcome is one candidate's measured run.
type raceOutcome struct {
	idx       int
	maxRadius float64
	ok        bool
	asg       *antenna.Assignment
	res       *core.Result
}

// Race runs the shortlist concurrently on the actual instance and picks
// the candidate with the smallest measured max radius among those that
// finish cleanly before the context is done; the winning run rides along
// in the Decision so the caller never orients twice. Candidates that
// error, report violations, or miss the deadline are ignored; if none
// finishes, Race falls back to the a-priori ranking. Ties break toward
// the a-priori rank, so a race with a generous deadline is
// deterministic.
//
// Orientation is CPU-bound Go code, so a candidate without cancellation
// checkpoints that misses the deadline keeps computing in the background
// until it finishes on its own; its result is discarded. Racing trades
// that burst of wasted work for instance-measured selection — callers
// under sustained load should prefer the a-priori Plan.
func (p *Planner) Race(ctx context.Context, pts []geom.Point, obj Objective, k int, phi float64) (Decision, error) {
	feasible, rejected := p.Shortlist(obj, k, phi)
	if len(feasible) == 0 {
		return Decision{Rejected: rejected}, fmt.Errorf(
			"plan: no registered orienter guarantees %s connectivity at k=%d phi=%.4f", obj.Conn, k, phi)
	}
	if obj.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, obj.Deadline)
		defer cancel()
	}
	results := make(chan raceOutcome, len(feasible))
	launched := 0
	for i, c := range feasible {
		o, ok := core.LookupOrienter(c.Name)
		if !ok {
			continue
		}
		launched++
		go func(i int, o core.Orienter) {
			// Candidates with cancellation checkpoints stop at the race
			// deadline instead of burning the lost run to completion.
			asg, res, err := o.OrientCtx(ctx, pts, k, phi)
			out := raceOutcome{idx: i}
			if err == nil && len(res.Violations) == 0 {
				out.ok = true
				out.maxRadius = asg.MaxRadius()
				out.asg, out.res = asg, res
			}
			select {
			case results <- out:
			case <-ctx.Done():
			}
		}(i, o)
	}
	best := raceOutcome{idx: -1}
	done := 0
collect:
	for done < launched {
		select {
		case r := <-results:
			done++
			if r.ok && (best.idx < 0 || r.maxRadius < best.maxRadius ||
				(r.maxRadius == best.maxRadius && r.idx < best.idx)) {
				best = r
			}
		case <-ctx.Done():
			break collect
		}
	}
	if best.idx < 0 {
		// Nothing finished in time: fall back to the a-priori pick.
		return Decision{
			Winner:    feasible[0].Name,
			Guarantee: feasible[0].Guarantee,
			Shortlist: feasible,
			Rejected:  rejected,
		}, nil
	}
	return Decision{
		Winner:    feasible[best.idx].Name,
		Guarantee: feasible[best.idx].Guarantee,
		Shortlist: feasible,
		Rejected:  rejected,
		Raced:     true,
		Measured:  best.maxRadius,
		WinnerAsg: best.asg,
		WinnerRes: best.res,
	}, nil
}
