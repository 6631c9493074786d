package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/par"
)

// PortfolioRow aggregates one (orienter, budget) cell of the comparison:
// how the construction's measured radius relates to its own guarantee,
// with every instance independently verified against that guarantee
// (connectivity kind, antenna count, spread, stretch).
type PortfolioRow struct {
	Algo      string
	Conn      core.Connectivity
	K         int
	Phi       float64
	Stretch   float64 // guaranteed radius bound (units of l_max)
	Antennae  int     // guaranteed antennae per sensor
	Instances int
	Successes int
	MaxRatio  float64
	MeanRatio float64
}

// RunPortfolio runs every registered orienter over every supported
// budget of the portfolio grid, across the configured workloads, and
// verifies each instance against the orienter's declared guarantee.
// Instances fan out across cfg.Workers goroutines with deterministic
// per-instance seeds and are folded in spec order, so results are
// identical at every parallelism level. cfg.Algo restricts the run to a
// single orienter when set.
func RunPortfolio(cfg Config) []PortfolioRow {
	cfg = cfg.orDefault()
	budgets := core.PortfolioBudgets()

	type cellSpec struct {
		o    core.Orienter
		g    core.Guarantee
		kphi core.KPhi
	}
	var cells []cellSpec
	for _, o := range core.Orienters() {
		if cfg.Algo != "" && o.Info().Name != cfg.Algo {
			continue
		}
		for _, b := range budgets {
			if g, ok := o.Guarantee(b.K, b.Phi); ok {
				cells = append(cells, cellSpec{o: o, g: g, kphi: b})
			}
		}
	}

	perCell := len(cfg.Workloads) * cfg.Seeds
	insts := make([]sweepInstance, len(cells)*perCell)
	par.For(cfg.Workers, len(insts), 1, func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			ci, j := idx/perCell, idx%perCell
			cell := cells[ci]
			wl := cfg.Workloads[j/cfg.Seeds]
			s := j % cfg.Seeds
			rng := rand.New(rand.NewSource(cfg.BaseSeed + int64(ci)*104729 + int64(j)*7919))
			pts := MakeWorkload(wl, rng, cfg.Sizes[s%len(cfg.Sizes)])
			sol, err := cfg.solve(pts, cell.o.Info().Name, cell.kphi.K, cell.kphi.Phi)
			if err != nil {
				// The budget passed the Guarantee pre-check, so an error
				// here is an algorithm failure, not an unsupported instance.
				insts[idx] = sweepInstance{ran: true}
				continue
			}
			// The engine's artifact measures through the independent
			// verifier, never the construction's self-report.
			insts[idx] = sweepInstance{
				ran:     true,
				success: sol.Verified,
				ratio:   sol.RadiusRatio,
			}
		}
	})

	out := make([]PortfolioRow, 0, len(cells))
	for ci, cell := range cells {
		row := PortfolioRow{
			Algo:     cell.o.Info().Name,
			Conn:     cell.g.Conn,
			K:        cell.kphi.K,
			Phi:      cell.kphi.Phi,
			Stretch:  cell.g.Stretch,
			Antennae: cell.g.Antennae,
		}
		var p SweepPoint
		foldSweep(&p, insts[ci*perCell:(ci+1)*perCell])
		row.Instances, row.Successes = p.Instances, p.Successes
		row.MaxRatio, row.MeanRatio = p.MaxRatio, p.MeanRatio
		out = append(out, row)
	}
	return out
}

// WritePortfolio renders the portfolio comparison.
func WritePortfolio(w io.Writer, rows []PortfolioRow) error {
	if _, err := fmt.Fprintln(w, "Portfolio — orienters × budgets, every instance verified against its own guarantee"); err != nil {
		return err
	}
	headers := []string{"algo", "k", "phi/pi", "conn", "antennae", "guarantee", "measured max", "measured mean", "ok"}
	var tab [][]string
	for _, r := range rows {
		tab = append(tab, []string{
			r.Algo,
			d(r.K),
			f(r.Phi / math.Pi),
			r.Conn.String(),
			d(r.Antennae),
			f(r.Stretch),
			f(r.MaxRatio),
			f(r.MeanRatio),
			pct(r.Successes, r.Instances),
		})
	}
	return WriteTable(w, headers, tab)
}
