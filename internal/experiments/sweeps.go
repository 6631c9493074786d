package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/geom"
	"repro/internal/mst"
	"repro/internal/par"
	"repro/internal/pointset"
	"repro/internal/radio"
)

// SweepPoint is one sample of a trade-off curve.
type SweepPoint struct {
	X         float64 // swept parameter (φ₂ or k)
	Bound     float64
	MaxRatio  float64
	MeanRatio float64
	Successes int
	Instances int
}

// sweepInstance is the unit of work a sweep fans out: orient one seeded
// workload at (k, φ) and record the verdict.
type sweepInstance struct {
	ran     bool // Orient succeeded
	success bool
	ratio   float64
}

// runSweepInstance orients one instance for a sweep sample through the
// engine with the configured orienter; budgets outside its region yield
// a skipped instance (ran = false).
func runSweepInstance(cfg Config, seed int64, s, k int, phi float64) sweepInstance {
	if !cfg.orienter().Supports(k, phi) {
		return sweepInstance{}
	}
	rng := rand.New(rand.NewSource(seed))
	pts := MakeWorkload(cfg.Workloads[s%len(cfg.Workloads)], rng, cfg.Sizes[s%len(cfg.Sizes)])
	sol, err := cfg.solve(pts, cfg.algoName(), k, phi)
	if err != nil {
		return sweepInstance{}
	}
	return sweepInstance{
		ran:     true,
		success: sol.Verified,
		ratio:   sol.RadiusRatio,
	}
}

// foldSweep aggregates one sample's instances (in seed order) into p.
func foldSweep(p *SweepPoint, insts []sweepInstance) {
	var sum float64
	for _, in := range insts {
		if !in.ran {
			continue
		}
		p.Instances++
		if in.success {
			p.Successes++
		}
		sum += in.ratio
		if in.ratio > p.MaxRatio {
			p.MaxRatio = in.ratio
		}
	}
	if p.Instances > 0 {
		p.MeanRatio = sum / float64(p.Instances)
	}
}

// PhiSweep traces the k=2 radius/spread trade-off (experiment E-S1): φ₂
// from 2π/3 to 6π/5, the paper's Theorem 3 curve 2·sin(π/2 − φ₂/4)
// dropping to 2·sin(2π/9) at π and to 1 at 6π/5. Instances fan out across
// cfg.Workers goroutines with deterministic per-instance seeds and are
// folded in seed order.
func PhiSweep(cfg Config, steps int) []SweepPoint {
	cfg = cfg.orDefault()
	if steps < 2 {
		steps = 12
	}
	lo := core.Phi2Min
	hi := core.Phi2Full
	insts := make([]sweepInstance, (steps+1)*cfg.Seeds)
	par.For(cfg.Workers, len(insts), 1, func(from, to int) {
		for idx := from; idx < to; idx++ {
			i, s := idx/cfg.Seeds, idx%cfg.Seeds
			phi := lo + (hi-lo)*float64(i)/float64(steps)
			insts[idx] = runSweepInstance(cfg, cfg.BaseSeed+int64(i*1000+s), s, 2, phi)
		}
	})
	out := make([]SweepPoint, 0, steps+1)
	for i := 0; i <= steps; i++ {
		phi := lo + (hi-lo)*float64(i)/float64(steps)
		bound, _ := core.Bound(2, phi)
		p := SweepPoint{X: phi, Bound: bound}
		foldSweep(&p, insts[i*cfg.Seeds:(i+1)*cfg.Seeds])
		out = append(out, p)
	}
	return out
}

// KSweep traces the φ=0 column of Table 1 (experiment E-S2): radius as a
// function of the antenna count k, fanned out like PhiSweep.
func KSweep(cfg Config) []SweepPoint {
	cfg = cfg.orDefault()
	insts := make([]sweepInstance, 5*cfg.Seeds)
	par.For(cfg.Workers, len(insts), 1, func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			k, s := idx/cfg.Seeds+1, idx%cfg.Seeds
			insts[idx] = runSweepInstance(cfg, cfg.BaseSeed+int64(k*1000+s), s, k, 0)
		}
	})
	out := make([]SweepPoint, 0, 5)
	for k := 1; k <= 5; k++ {
		bound, _ := core.Bound(k, 0)
		p := SweepPoint{X: float64(k), Bound: bound}
		foldSweep(&p, insts[(k-1)*cfg.Seeds:k*cfg.Seeds])
		out = append(out, p)
	}
	return out
}

// WriteSweep renders a sweep as a table.
func WriteSweep(w io.Writer, title, xlabel string, pts []SweepPoint) error {
	if _, err := fmt.Fprintln(w, title); err != nil {
		return err
	}
	headers := []string{xlabel, "paper bound", "measured max", "measured mean", "ok"}
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{f(p.X), f(p.Bound), f(p.MaxRatio), f(p.MeanRatio), pct(p.Successes, p.Instances)})
	}
	return WriteTable(w, headers, rows)
}

// AblationCover compares the optimal k-gap cover against the paper's
// literal Lemma-1 construction (experiment E-A1): worst per-vertex spread
// used across instances.
type AblationCoverResult struct {
	K              int
	OptimalSpread  float64
	LiteralSpread  float64
	Lemma1Worst    float64 // 2π(5−k)/5
	InstancesTried int
}

// RunAblationCover measures both cover variants.
func RunAblationCover(cfg Config) []AblationCoverResult {
	cfg = cfg.orDefault()
	var out []AblationCoverResult
	for k := 1; k <= 4; k++ {
		r := AblationCoverResult{K: k, Lemma1Worst: 2 * math.Pi * float64(5-k) / 5}
		for s := 0; s < cfg.Seeds; s++ {
			rng := rand.New(rand.NewSource(cfg.BaseSeed + int64(k*500+s)))
			pts := MakeWorkload(cfg.Workloads[s%len(cfg.Workloads)], rng, cfg.Sizes[s%len(cfg.Sizes)])
			_, resOpt := core.OrientFullCover(pts, k, geom.TwoPi, false)
			_, resLit := core.OrientFullCover(pts, k, geom.TwoPi, true)
			if resOpt.SpreadUsed > r.OptimalSpread {
				r.OptimalSpread = resOpt.SpreadUsed
			}
			if resLit.SpreadUsed > r.LiteralSpread {
				r.LiteralSpread = resLit.SpreadUsed
			}
			r.InstancesTried++
		}
		out = append(out, r)
	}
	return out
}

// WriteAblationCover renders E-A1.
func WriteAblationCover(w io.Writer, results []AblationCoverResult) error {
	if _, err := fmt.Fprintln(w, "E-A1 — full-cover spread: optimal k-gap cover vs paper's literal Lemma 1"); err != nil {
		return err
	}
	headers := []string{"k", "optimal max spread", "literal max spread", "Lemma 1 worst case"}
	var rows [][]string
	for _, r := range results {
		rows = append(rows, []string{d(r.K), f(r.OptimalSpread), f(r.LiteralSpread), f(r.Lemma1Worst)})
	}
	return WriteTable(w, headers, rows)
}

// BTSPResult compares tour constructions (experiment E-A2).
type BTSPResult struct {
	N         int
	Shortcut  float64 // bottleneck / l_max after 2-opt
	Cube      float64
	Exact     float64 // 0 when n too large
	Instances int
}

// RunBTSP measures tour bottlenecks across sizes.
func RunBTSP(cfg Config, sizes []int) []BTSPResult {
	cfg = cfg.orDefault()
	if len(sizes) == 0 {
		sizes = []int{8, 40, 150}
	}
	var out []BTSPResult
	for _, n := range sizes {
		r := BTSPResult{N: n}
		var sc, cu, ex float64
		exCount := 0
		for s := 0; s < cfg.Seeds; s++ {
			rng := rand.New(rand.NewSource(cfg.BaseSeed + int64(n*100+s)))
			pts := pointset.Uniform(rng, n, 10)
			tree := mst.Euclidean(pts)
			lmax := tree.LMax()
			if lmax == 0 {
				continue
			}
			r.Instances++
			sc += core.TourBottleneck(pts, core.TwoOptBottleneck(pts, core.ShortcutTour(tree), 4*n)) / lmax
			cu += core.TourBottleneck(pts, core.CubeTour(tree)) / lmax
			if _, b, ok := core.ExactBottleneckTour(pts); ok {
				ex += b / lmax
				exCount++
			}
		}
		if r.Instances > 0 {
			r.Shortcut = sc / float64(r.Instances)
			r.Cube = cu / float64(r.Instances)
		}
		if exCount > 0 {
			r.Exact = ex / float64(exCount)
		}
		out = append(out, r)
	}
	return out
}

// WriteBTSP renders E-A2.
func WriteBTSP(w io.Writer, results []BTSPResult) error {
	if _, err := fmt.Fprintln(w, "E-A2 — bottleneck tour constructions (mean bottleneck / l_max)"); err != nil {
		return err
	}
	headers := []string{"n", "shortcut+2opt", "cube (Sekanina)", "exact", "instances"}
	var rows [][]string
	for _, r := range results {
		exact := "-"
		if r.Exact > 0 {
			exact = f(r.Exact)
		}
		rows = append(rows, []string{d(r.N), f(r.Shortcut), f(r.Cube), exact, d(r.Instances)})
	}
	return WriteTable(w, headers, rows)
}

// ExactGapResult compares algorithm radii with proven optima (E-X1).
type ExactGapResult struct {
	K         int
	Phi       float64
	MeanGap   float64 // mean algorithm/optimal ratio
	MaxGap    float64
	Instances int
}

// RunExactGap runs the exact solver against the dispatcher on small
// instances.
func RunExactGap(cfg Config, n int) []ExactGapResult {
	cfg = cfg.orDefault()
	if n <= 0 || n > exact.MaxN {
		n = 7
	}
	specs := []struct {
		k   int
		phi float64
	}{
		{1, math.Pi}, {2, math.Pi}, {2, core.Phi2Min}, {3, 0}, {4, 0}, {5, 0},
	}
	var out []ExactGapResult
	for _, sp := range specs {
		r := ExactGapResult{K: sp.k, Phi: sp.phi}
		var sum float64
		for s := 0; s < cfg.Seeds; s++ {
			rng := rand.New(rand.NewSource(cfg.BaseSeed + int64(sp.k*977+s)))
			pts := pointset.Uniform(rng, n, 4)
			lmax := mst.Euclidean(pts).LMax()
			opt, ok := exact.Solve(pts, exact.Options{K: sp.k, Phi: sp.phi}, lmax)
			if !ok || opt.Radius == 0 {
				continue
			}
			_, res, err := core.Orient(pts, sp.k, sp.phi)
			if err != nil {
				continue
			}
			gap := res.RadiusUsed / opt.Radius
			sum += gap
			if gap > r.MaxGap {
				r.MaxGap = gap
			}
			r.Instances++
		}
		if r.Instances > 0 {
			r.MeanGap = sum / float64(r.Instances)
		}
		out = append(out, r)
	}
	return out
}

// WriteExactGap renders E-X1.
func WriteExactGap(w io.Writer, results []ExactGapResult) error {
	if _, err := fmt.Fprintln(w, "E-X1 — algorithm radius vs proven optimum (small n)"); err != nil {
		return err
	}
	headers := []string{"k", "phi/pi", "mean alg/opt", "max alg/opt", "instances"}
	var rows [][]string
	for _, r := range results {
		rows = append(rows, []string{d(r.K), f(r.Phi / math.Pi), f(r.MeanGap), f(r.MaxGap), d(r.Instances)})
	}
	return WriteTable(w, headers, rows)
}

// InterferenceRow is one row of E-X3.
type InterferenceRow struct {
	Label        string
	K            int
	Phi          float64
	MeanOverhear float64
	MaxRounds    int
	MeanRounds   float64
}

// RunInterference measures overhearing and broadcast latency per row
// (experiment E-X3).
func RunInterference(cfg Config, n int) []InterferenceRow {
	cfg = cfg.orDefault()
	if n <= 0 {
		n = 150
	}
	rng := rand.New(rand.NewSource(cfg.BaseSeed))
	pts := pointset.Uniform(rng, n, 12)
	var out []InterferenceRow
	for _, row := range core.Table1Rows() {
		asg, _, err := core.Orient(pts, row.K, row.Phi)
		if err != nil {
			continue
		}
		st := radio.Interference(asg)
		g := asg.InducedDigraph()
		maxR, meanR, _ := radio.BroadcastAll(g)
		out = append(out, InterferenceRow{
			Label:        row.Name,
			K:            row.K,
			Phi:          row.Phi,
			MeanOverhear: st.MeanOverhear,
			MaxRounds:    maxR,
			MeanRounds:   meanR,
		})
	}
	return out
}

// WriteInterference renders E-X3.
func WriteInterference(w io.Writer, rows []InterferenceRow) error {
	if _, err := fmt.Fprintln(w, "E-X3 — interference (mean overhear per transmission) and broadcast latency"); err != nil {
		return err
	}
	headers := []string{"row", "k", "phi/pi", "mean overhear", "flood rounds max", "flood rounds mean"}
	var tab [][]string
	for _, r := range rows {
		tab = append(tab, []string{r.Label, d(r.K), f(r.Phi / math.Pi), f(r.MeanOverhear), d(r.MaxRounds), f(r.MeanRounds)})
	}
	return WriteTable(w, headers, tab)
}
