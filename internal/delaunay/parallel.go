// Concurrent Bowyer–Watson insertion under deterministic reservations.
//
// The parallel build processes each BRIO round in chunks. Every chunk
// runs sub-rounds of three barrier-separated phases over a frozen mesh:
//
//	Phase A (parallel): each unresolved point locates its triangle,
//	  runs the cavity BFS read-only with per-worker scratch, and
//	  reserves its footprint — cavity triangles plus the surviving ring
//	  across the boundary — by an atomic min-CAS of its priority.
//	Phase B/C: a point that holds every reservation in its footprint is
//	  a winner; winners commit concurrently through the same
//	  commitCavityAt as the serial schedule. Losers retry in the next
//	  sub-round against the updated mesh.
//
// Priorities are a fixed bijective scramble of the BRIO positions.
// Points are evaluated in Morton order (so hint-chained walks stay
// O(1)), but conflicts are won by scrambled rank: Morton-adjacent
// points — exactly the ones whose cavities overlap — carry decorrelated
// priorities, so a conflict chain resolves a large independent set per
// sub-round instead of only its head. Non-conflicting commits commute
// by the standard Bowyer–Watson locality lemma (a new triangle's
// circumcircle contains p only if p was inside the circumcircle of a
// killed triangle, i.e. only if the cavities overlapped), and the exact
// predicates make the triangulation of a general-position point set
// unique regardless of insertion order. Together with the canonical
// harvest in Build this pins the parallel output byte-identical to the
// serial schedule for any point set without exact degeneracies; inputs WITH
// them (duplicate points, cocircular ties) still build correctly and
// deterministically for every workers >= 2 — every scheduling input
// (chunk bounds, hints, winner sets, commit order) is data-derived — but
// may resolve a degenerate pair in a different order than the serial
// schedule, which is why TestBuildGolden and the adversarial suites pin
// those inputs per schedule.
package delaunay

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
)

// Tuning knobs for the concurrent build.
const (
	parallelCutoff = 4096 // below this many points the serial schedule wins
	serialPrefix   = 2048 // rounds this early stay serial: the mesh is tiny and everything conflicts
	minParRound    = 512  // rounds smaller than this stay serial
	// stratStride interleaves a round into residue classes: concurrent
	// points sit ~stride positions apart on the Morton curve, several
	// mesh spacings in space, which keeps their cavities disjoint and the
	// first-try win rate high. Larger strides trade smaller waves (more
	// barriers) for fewer conflict retries; 128 measured best at n=100k.
	stratStride = 128
	// maxWave caps the points evaluated per sub-round (bounds the
	// results/reservation footprint of one barrier).
	maxWave = 4096
)

// Point resolutions out of phase A.
const (
	aSkip   = iota // degenerate here (duplicate, tie, bad cavity): finalize without mutating
	aCommit        // cavity validated: carve and fan
)

// evalBlock is the number of points a worker draws per cursor grab; the
// in-block hint chain makes walk lengths O(1) amortized, so larger
// blocks amortize the one cold walk at each block start.
const evalBlock = 64

// hintChain marks "start the walk from the previous point's triangle".
const hintChain = int32(-2)

// scramble maps a BRIO position to its conflict priority: a bit-reversed
// (hence bijective) rank that strips the Morton spatial correlation from
// neighboring positions. Lower scrambled rank wins a conflict.
func scramble(pos int32) int64 {
	return int64(bits.Reverse32(uint32(pos) + 0x9e3779b9))
}

// pevalRes is one point's evaluation. cavity and boundary alias the
// worker's arenas and are valid until the arenas reset (next sub-round,
// or next point on the serial schedule).
type pevalRes struct {
	action   uint8
	located  int32
	cavity   []int32
	boundary []bedge
}

// workerScratch is the per-worker evaluation state: an epoch-stamped
// visited array over mesh slots (so concurrent BFSs never share marks),
// and append arenas backing the cavity/boundary slices of the results.
type workerScratch struct {
	visit []int32
	epoch int32
	cav   []int32
	bnd   []bedge
}

// newWorkerScratch sizes the visited array for a mesh of at most slots
// slots, so evaluate never has to grow it.
func newWorkerScratch(slots int) *workerScratch {
	return &workerScratch{visit: make([]int32, slots)}
}

// parState carries the reusable buffers of one parallel build.
type parState struct {
	workers int
	scratch []*workerScratch
	// owner[t] = era<<32 | priority of the lowest-priority point that
	// reserved slot t, valid only when the stored era matches the
	// current sub-round (so it never needs clearing).
	owner   []int64
	era     int64
	results []pevalRes
	unres   []int32 // BRIO positions still unresolved, ascending
	hints   []int32 // walk start per unresolved point
	resTri  []int32 // per round position: triangle the point resolved at
	winners []int32 // result indices of this sub-round's commit winners
	wpos    []int32 // BRIO position of each winner (unres is recycled in place)
	flags   []bool  // per result: owns its whole footprint
}

func newParState(workers, slots int) *parState {
	ps := &parState{workers: workers}
	for i := 0; i < workers; i++ {
		ps.scratch = append(ps.scratch, newWorkerScratch(slots))
	}
	return ps
}

// insertParallel inserts order with concurrent sub-rounds, keeping early
// and undersized rounds on the serial schedule.
func (m *mesh) insertParallel(order []int32, roundEnds []int, workers, slots int) {
	ps := newParState(workers, slots)
	done := 0
	for _, end := range roundEnds {
		if end <= serialPrefix || end-done < minParRound {
			m.insertSerial(order[done:end], ps.scratch[0])
			done = end
			continue
		}
		m.resolveRound(order, done, end, ps)
		done = end
	}
}

// spmdBarrier is a reusable barrier for the fixed worker set of one
// parallel round. When every worker has its own processor, waiters spin
// briefly on the phase counter — phases are typically tens of
// microseconds — before parking on the condition variable; oversubscribed
// workers park immediately, since spinning only steals cycles from the
// worker they are waiting on.
type spmdBarrier struct {
	n     int32
	spin  int
	count atomic.Int32
	phase atomic.Int32
	mu    sync.Mutex
	cond  *sync.Cond
}

func newSpmdBarrier(n int) *spmdBarrier {
	b := &spmdBarrier{n: int32(n)}
	if runtime.GOMAXPROCS(0) >= n {
		b.spin = 2048
	}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *spmdBarrier) wait() {
	ph := b.phase.Load()
	if b.count.Add(1) == b.n {
		b.count.Store(0)
		b.mu.Lock()
		b.phase.Store(ph + 1)
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	for spin := 0; spin < b.spin; spin++ {
		if b.phase.Load() != ph {
			return
		}
	}
	b.mu.Lock()
	for b.phase.Load() == ph {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// wave is the shared state of one SPMD sub-round. Worker 0 (the round's
// main goroutine) writes it during serial sections; barrier crossings
// publish it to the helpers for the parallel phases.
type wave struct {
	order            []int32
	lo               int
	unres            []int32
	hints            []int32
	resTri           []int32
	active           int
	startHint        int32
	results          []pevalRes
	flags            []bool // per result: owns its whole footprint
	winners          []int32
	wpos             []int32
	fresh            int32 // first pre-grown slot for this wave's commits
	curA, curO, curC atomic.Int64
	done             bool
}

// resolveRound drives sub-rounds until every point in order[lo:hi) is
// resolved. The unresolved list starts stratified by stratStride residue
// class, and each sub-round takes the leading window of it, so the
// active points are spatially sparse. The minimum unresolved priority in
// a window always holds all of its reservations, so each sub-round
// resolves at least one point.
//
// The round runs SPMD: helper goroutines persist across sub-rounds and
// synchronize with the main goroutine (worker 0) on a reusable barrier —
// five crossings per wave — because spawning per wave would cost more
// than the waves themselves. Serial sections (wave setup, winner
// selection, bookkeeping) run on worker 0 while the helpers wait.
func (m *mesh) resolveRound(order []int32, lo, hi int, ps *parState) {
	unres := ps.unres[:0]
	hints := ps.hints[:0]
	for r := 0; r < stratStride; r++ {
		for pos := lo + r; pos < hi; pos += stratStride {
			unres = append(unres, int32(pos))
			hints = append(hints, hintChain)
		}
	}
	// One residue class is the largest spatially-sparse window: points
	// within a class sit stratStride apart on the Morton curve. Windows
	// larger than a class would activate offset-1 neighbors together and
	// collapse the win rate.
	classSize := (hi - lo + stratStride - 1) / stratStride
	if cap(ps.resTri) < hi-lo {
		ps.resTri = make([]int32, hi-lo)
	}
	resTri := ps.resTri[:hi-lo]
	for i := range resTri {
		resTri[i] = -1
	}

	wv := &wave{order: order, lo: lo, resTri: resTri}
	br := newSpmdBarrier(ps.workers)
	var wg sync.WaitGroup
	for w := 1; w < ps.workers; w++ {
		wg.Add(1)
		go func(sc *workerScratch) {
			defer wg.Done()
			for {
				br.wait() // wave start (setup published)
				if wv.done {
					return
				}
				m.phaseA(wv, ps, sc)
				br.wait() // reservations complete
				m.phaseOwns(wv, ps)
				br.wait() // ownership flags complete
				br.wait() // winner selection (worker 0) complete
				m.phaseC(wv, ps)
				br.wait() // commits complete
			}
		}(ps.scratch[w])
	}

	for len(unres) > 0 {
		active := len(unres)
		if active > classSize {
			active = classSize
		}
		if active > maxWave {
			active = maxWave
		}
		ps.era++
		nslots := len(m.dead)
		for len(ps.owner) < nslots {
			ps.owner = append(ps.owner, 0)
		}
		for _, sc := range ps.scratch {
			sc.cav = sc.cav[:0]
			sc.bnd = sc.bnd[:0]
		}
		if cap(ps.results) < active {
			ps.results = make([]pevalRes, active)
			ps.flags = make([]bool, active)
		}
		wv.unres, wv.hints = unres, hints
		wv.active = active
		wv.startHint = m.hint
		wv.results = ps.results[:active]
		wv.flags = ps.flags[:active]
		wv.curA.Store(0)
		wv.curO.Store(0)
		wv.curC.Store(0)

		br.wait() // wave start
		m.phaseA(wv, ps, ps.scratch[0])
		br.wait() // reservations complete
		m.phaseOwns(wv, ps)
		br.wait() // ownership flags complete

		// Winner selection (serial): walk the window in order, filtering
		// losers in place (the inactive tail shifts up behind them);
		// winners with a validated cavity queue for the commit phase,
		// the rest finalize without touching the mesh, exactly as the
		// serial schedule skips them. The filter recycles unres in
		// place, so winners capture their BRIO positions now.
		nu, nh := unres[:0], hints[:0]
		winners, wpos := ps.winners[:0], ps.wpos[:0]
		for k := 0; k < active; k++ {
			pos := unres[k]
			res := &wv.results[k]
			if !wv.flags[k] {
				nu = append(nu, pos)
				nh = append(nh, res.located)
				continue
			}
			if res.action == aCommit {
				winners = append(winners, int32(k))
				wpos = append(wpos, pos)
			} else {
				resTri[pos-int32(lo)] = res.located
			}
		}
		wv.winners, wv.wpos = winners, wpos
		if len(winners) > 0 {
			wv.fresh = m.growSlots(2 * len(winners))
		}
		br.wait() // winner selection complete
		m.phaseC(wv, ps)
		br.wait() // commits complete

		if len(winners) > 0 {
			for i, pos := range wpos {
				// The fan's last new triangle, as on the serial schedule.
				resTri[pos-int32(lo)] = wv.fresh + 2*int32(i) + 1
			}
			m.hint = wv.fresh + 2*int32(len(winners)) - 1
		}
		ps.winners, ps.wpos = winners, wpos
		// Losers whose cached triangle died under a winner's commit
		// restart from the current hint (fixed up serially, post-commit,
		// so it is deterministic).
		for i, h := range nh {
			if h < 0 || m.dead[h] {
				nh[i] = m.hint
			}
		}
		tail := unres[active:]
		tailH := hints[active:]
		nu = append(nu, tail...)
		nh = append(nh, tailH...)
		unres, hints = nu, nh
	}
	wv.done = true
	br.wait() // release the helpers
	wg.Wait()
	ps.unres, ps.hints = unres[:0], hints[:0]
}

// phaseA evaluates and reserves the wave's window, workers pulling blocks
// off an atomic cursor. Each evaluation depends only on the frozen mesh
// and its hint, so the block schedule cannot change any result.
func (m *mesh) phaseA(wv *wave, ps *parState, sc *workerScratch) {
	lo, active := int32(wv.lo), wv.active
	for {
		k := int(wv.curA.Add(evalBlock)) - evalBlock
		if k >= active {
			return
		}
		end := k + evalBlock
		if end > active {
			end = active
		}
		// Chain hints within the block: points are Morton-sorted, so the
		// previous point's triangle is a near-optimal walk start. The
		// chain restarts at every block boundary, so results are
		// independent of which worker drew the block.
		last := wv.startHint
		for ; k < end; k++ {
			pos := wv.unres[k]
			h := wv.hints[k]
			if h == hintChain {
				// Best walk start: the triangle where the Morton
				// predecessor (resolved in an earlier class) landed — one
				// mesh spacing away. Fall back to the in-block chain.
				h = last
				if pos > lo {
					if rt := wv.resTri[pos-1-lo]; rt >= 0 && !m.dead[rt] {
						h = rt
					}
				}
			}
			wv.results[k] = m.evaluate(wv.order[pos], h, sc)
			if t := wv.results[k].located; t >= 0 {
				last = t
			}
			ps.reserveAll(&wv.results[k], ps.era<<32|scramble(pos))
		}
	}
}

// phaseOwns flags which points hold every reservation in their footprint.
// It runs after the phase A barrier, so plain reads of owner suffice.
func (m *mesh) phaseOwns(wv *wave, ps *parState) {
	const block = 256
	active := wv.active
	for {
		k := int(wv.curO.Add(block)) - block
		if k >= active {
			return
		}
		end := k + block
		if end > active {
			end = active
		}
		for ; k < end; k++ {
			wv.flags[k] = ps.ownsAll(&wv.results[k], ps.era<<32|scramble(wv.unres[k]))
		}
	}
}

// phaseC commits the wave's winners concurrently. Winners are pairwise
// disjoint (each owns its whole footprint), every fan reuses the winner's
// own cavity slots plus two fresh slots pre-assigned by window rank, and
// the slot arrays were pre-grown during winner selection — so the commits
// write disjoint locations and the mesh is identical under any
// interleaving.
func (m *mesh) phaseC(wv *wave, ps *parState) {
	const block = 16
	nw := len(wv.winners)
	for {
		i0 := int(wv.curC.Add(block)) - block
		if i0 >= nw {
			return
		}
		end := i0 + block
		if end > nw {
			end = nw
		}
		for i := i0; i < end; i++ {
			res := &wv.results[wv.winners[i]]
			m.commitCavityAt(wv.order[wv.wpos[i]], res.cavity, res.boundary, wv.fresh+2*int32(i))
		}
	}
}

// evaluate computes point pi's Bowyer–Watson cavity against the current
// mesh, walking from start: locate, duplicate guard, incircle gate,
// cavity BFS, and the star-shaped-disk validity checks (one simple
// boundary cycle with p strictly left of every boundary edge; anything
// else is a floating-point degeneracy, and the point is skipped rather
// than corrupt the mesh). It mutates only sc.
func (m *mesh) evaluate(pi int32, start int32, sc *workerScratch) pevalRes {
	p := m.all[pi]
	t0 := m.locateFrom(p, start)
	if t0 < 0 {
		return pevalRes{action: aSkip, located: -1}
	}
	for i := 0; i < 3; i++ {
		if m.all[m.tv[3*int(t0)+i]].Dist2(p) <= geom.Eps*geom.Eps {
			return pevalRes{action: aSkip, located: t0}
		}
	}
	if !m.incircle(t0, p) {
		return pevalRes{action: aSkip, located: t0}
	}

	sc.epoch++
	cav0, bnd0 := len(sc.cav), len(sc.bnd)
	sc.visit[t0] = sc.epoch
	sc.cav = append(sc.cav, t0)
	for qi := cav0; qi < len(sc.cav); qi++ {
		base := 3 * int(sc.cav[qi])
		for i := 0; i < 3; i++ {
			nb := m.tn[base+i]
			if nb >= 0 {
				if sc.visit[nb] == sc.epoch {
					continue
				}
				if m.incircle(nb, p) {
					sc.visit[nb] = sc.epoch
					sc.cav = append(sc.cav, nb)
					continue
				}
			}
			sc.bnd = append(sc.bnd, bedge{m.tv[base+i], m.tv[base+(i+1)%3], nb})
		}
	}
	res := pevalRes{action: aSkip, located: t0, cavity: sc.cav[cav0:], boundary: sc.bnd[bnd0:]}
	if cavityIsDisk(res.cavity, res.boundary) {
		res.action = aCommit
		for _, e := range res.boundary {
			if geom.OrientExact(m.all[e.a], m.all[e.b], p) <= 0 {
				res.action = aSkip
				break
			}
		}
	}
	return res
}

// commitCavityAt carves a validated cavity and fans it from point pi:
// the fan's i-th new triangle takes the cavity's own i-th slot, spilling
// into the two fresh slots at fresh (a disk cavity has exactly
// |cavity|+2 boundary edges), then the surviving outer neighbors are
// rewired and the fan stitched. It leaves the walk hint alone, and all
// its writes land in the cavity's footprint or its fresh pair, so
// disjoint winners of a round commit concurrently without
// synchronization. The fan's last triangle is fresh+1.
func (m *mesh) commitCavityAt(pi int32, cavity []int32, boundary []bedge, fresh int32) {
	nc := int32(len(cavity))
	slot := func(i int32) int32 {
		if i < nc {
			return cavity[i]
		}
		return fresh + (i - nc)
	}
	for i := range boundary {
		e := &boundary[i]
		t := slot(int32(i))
		m.dead[t] = false
		b3 := 3 * t
		m.tv[b3], m.tv[b3+1], m.tv[b3+2] = e.a, e.b, pi
		m.tn[b3], m.tn[b3+1], m.tn[b3+2] = e.outer, -1, -1
		if e.outer >= 0 {
			ob := 3 * int(e.outer)
			for k := 0; k < 3; k++ {
				if m.tv[ob+k] == e.b && m.tv[ob+(k+1)%3] == e.a {
					m.tn[ob+k] = t
					break
				}
			}
		}
	}
	// Stitch the fan: the neighbor of (b, p) in triangle (a, b, p) is the
	// new triangle whose boundary edge starts at b.
	if len(boundary) <= 40 {
		for i := range boundary {
			t := slot(int32(i))
			b := boundary[i].b
			for j := range boundary {
				if boundary[j].a == b {
					tj := slot(int32(j))
					m.tn[3*t+1] = tj
					m.tn[3*tj+2] = t
					break
				}
			}
		}
		return
	}
	startOf := make(map[int32]int32, len(boundary))
	for j := range boundary {
		startOf[boundary[j].a] = slot(int32(j))
	}
	for i := range boundary {
		t := slot(int32(i))
		tj := startOf[boundary[i].b]
		m.tn[3*t+1] = tj
		m.tn[3*tj+2] = t
	}
}

// reserveAll stamps the point's footprint — located triangle, cavity, and
// the surviving ring across the boundary — with its priority tag.
func (ps *parState) reserveAll(res *pevalRes, tag int64) {
	if res.located >= 0 {
		ps.reserveSlot(res.located, tag)
	}
	for _, t := range res.cavity {
		ps.reserveSlot(t, tag)
	}
	for _, e := range res.boundary {
		if e.outer >= 0 {
			ps.reserveSlot(e.outer, tag)
		}
	}
}

// reserveSlot is an atomic min-CAS on the slot's owner tag. A stale era
// counts as unowned; among current-era tags the lowest priority wins, so
// the final owner of every slot is interleaving-independent.
func (ps *parState) reserveSlot(t int32, tag int64) {
	addr := &ps.owner[t]
	for {
		cur := atomic.LoadInt64(addr)
		if cur>>32 == tag>>32 && uint32(cur) <= uint32(tag) {
			return
		}
		if atomic.CompareAndSwapInt64(addr, cur, tag) {
			return
		}
	}
}

// ownsAll reports whether the point holds every reservation in its
// footprint. Called after the phase barrier, so plain reads suffice.
func (ps *parState) ownsAll(res *pevalRes, tag int64) bool {
	if res.located >= 0 && ps.owner[res.located] != tag {
		return false
	}
	for _, t := range res.cavity {
		if ps.owner[t] != tag {
			return false
		}
	}
	for _, e := range res.boundary {
		if e.outer >= 0 && ps.owner[e.outer] != tag {
			return false
		}
	}
	return true
}
