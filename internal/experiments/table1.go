package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/par"
	"repro/internal/pointset"
	"repro/internal/service"
	"repro/internal/solution"
)

// Config controls experiment scale. The zero value is replaced by
// DefaultConfig.
type Config struct {
	Seeds     int   // instances per (row, workload)
	Sizes     []int // instance sizes cycled across seeds
	Workloads []string
	BaseSeed  int64
	Workers   int    // parallel instances; ≤ 0 selects GOMAXPROCS
	Algo      string // registered orienter to run; "" selects core.DefaultOrienterName
	// Engine solves every instance; nil selects the process-wide
	// service.Shared() engine (one artifact cache per process).
	Engine *service.Engine
}

// DefaultConfig is the scale used by cmd/table1 and the committed
// EXPERIMENTS.md numbers.
func DefaultConfig() Config {
	return Config{
		Seeds:     8,
		Sizes:     []int{60, 150, 400},
		Workloads: []string{"uniform", "clusters", "grid", "annulus", "stars"},
		BaseSeed:  2009, // IPDPS 2009
	}
}

func (c Config) orDefault() Config {
	def := DefaultConfig()
	if c.Seeds <= 0 {
		c.Seeds = def.Seeds
	}
	if len(c.Sizes) == 0 {
		c.Sizes = def.Sizes
	}
	if len(c.Workloads) == 0 {
		c.Workloads = def.Workloads
	}
	if c.BaseSeed == 0 {
		c.BaseSeed = def.BaseSeed
	}
	return c
}

// algoName resolves the configured algorithm name.
func (c Config) algoName() string {
	if c.Algo == "" {
		return core.DefaultOrienterName
	}
	return c.Algo
}

// orienter resolves the configured algorithm. Commands validate the name
// before building a Config, so an unknown name here is a programming
// error.
func (c Config) orienter() core.Orienter {
	o, ok := core.LookupOrienter(c.algoName())
	if !ok {
		panic(fmt.Sprintf("experiments: unknown orienter %q", c.algoName()))
	}
	return o
}

// engine resolves the engine instances are solved through.
func (c Config) engine() *service.Engine {
	if c.Engine != nil {
		return c.Engine
	}
	return service.Shared()
}

// solve routes one instance through the plan→solution engine — the same
// code path antennactl and antennad use — with an explicitly named
// orienter. The artifact's measurements come from the independent
// verifier.
func (c Config) solve(pts []geom.Point, algo string, k int, phi float64) (*solution.Solution, error) {
	sol, _, err := c.engine().Solve(context.Background(), service.Request{
		Pts: pts, K: k, Phi: phi, Algo: algo,
	})
	return sol, err
}

// MakeWorkload generates the named deployment (the shared generator
// vocabulary lives in pointset.Workload).
func MakeWorkload(kind string, rng *rand.Rand, n int) []geom.Point {
	return pointset.Workload(kind, rng, n)
}

// RowResult aggregates one Table-1 row across instances.
type RowResult struct {
	Row        core.RowSpec
	Instances  int
	Successes  int // strongly connected and within budgets
	MaxRatio   float64
	MeanRatio  float64
	Guarantee  float64
	Violations int // algorithm-internal invariant failures
}

// RunTable1 reproduces Table 1: every row run across the configured
// workloads, verified independently. The radius ratios are measured
// against l_max exactly as the paper normalizes them. Instances fan out
// across cfg.Workers goroutines (each draws its own seeded rng and writes
// only its slot) and are aggregated sequentially in instance order, so the
// results are identical at every parallelism level.
func RunTable1(cfg Config) []RowResult {
	cfg = cfg.orDefault()
	orienter := cfg.orienter()
	rows := make([]core.RowSpec, 0, 14)
	for _, row := range core.Table1Rows() {
		// A non-default orienter runs only the rows inside its region.
		if orienter.Supports(row.K, row.Phi) {
			rows = append(rows, row)
		}
	}

	type instSpec struct {
		row  int
		wl   string
		n    int
		seed int64
	}
	specs := make([]instSpec, 0, len(rows)*len(cfg.Workloads)*cfg.Seeds)
	for ri := range rows {
		instance := 0
		for _, wl := range cfg.Workloads {
			for s := 0; s < cfg.Seeds; s++ {
				n := cfg.Sizes[instance%len(cfg.Sizes)]
				specs = append(specs, instSpec{
					row:  ri,
					wl:   wl,
					n:    n,
					seed: cfg.BaseSeed + int64(instance)*7919 + int64(len(wl)),
				})
				instance++
			}
		}
	}

	type instResult struct {
		orientErr  bool
		guarantee  float64
		violations int
		success    bool
		ratio      float64
	}
	results := make([]instResult, len(specs))
	par.For(cfg.Workers, len(specs), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sp := specs[i]
			row := rows[sp.row]
			rng := rand.New(rand.NewSource(sp.seed))
			pts := MakeWorkload(sp.wl, rng, sp.n)
			sol, err := cfg.solve(pts, cfg.algoName(), row.K, row.Phi)
			if err != nil {
				results[i] = instResult{orientErr: true}
				continue
			}
			results[i] = instResult{
				guarantee:  sol.ProvedBound,
				violations: len(sol.Violations),
				success:    sol.Verified,
				ratio:      sol.RadiusRatio,
			}
		}
	})

	out := make([]RowResult, 0, len(rows))
	perRow := len(cfg.Workloads) * cfg.Seeds
	for ri, row := range rows {
		rr := RowResult{Row: row, Guarantee: row.Bound}
		var ratioSum float64
		for k := 0; k < perRow; k++ {
			r := results[ri*perRow+k]
			rr.Instances++
			if r.orientErr {
				rr.Violations++
				continue
			}
			if r.guarantee > rr.Guarantee {
				rr.Guarantee = r.guarantee
			}
			rr.Violations += r.violations
			if r.success {
				rr.Successes++
			}
			ratioSum += r.ratio
			if r.ratio > rr.MaxRatio {
				rr.MaxRatio = r.ratio
			}
		}
		if rr.Instances > 0 {
			rr.MeanRatio = ratioSum / float64(rr.Instances)
		}
		out = append(out, rr)
	}
	return out
}

// WriteTable1 renders the reproduction of Table 1 next to the paper's
// bounds.
func WriteTable1(w io.Writer, results []RowResult) error {
	headers := []string{"row", "k", "phi/pi", "paper bound", "measured max", "measured mean", "ok", "source"}
	var rows [][]string
	for _, r := range results {
		rows = append(rows, []string{
			r.Row.Name,
			d(r.Row.K),
			f(r.Row.Phi / 3.141592653589793),
			f(r.Row.Bound),
			f(r.MaxRatio),
			f(r.MeanRatio),
			pct(r.Successes, r.Instances),
			r.Row.Source,
		})
	}
	if _, err := fmt.Fprintln(w, "Table 1 — upper bounds on antenna range (radius / l_max), paper vs measured"); err != nil {
		return err
	}
	return WriteTable(w, headers, rows)
}
