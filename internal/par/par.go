// Package par provides the minimal data-parallel helper shared by the
// compute-bound phases of the solver (Delaunay build phases, verifier
// scans) and the experiment harnesses' per-instance fan-out: a blocked
// parallel for over an index range. It exists below
// internal/core so that packages core itself depends on (delaunay, mst,
// verify) can use it without an import cycle.
//
// Determinism contract: For runs body over disjoint index blocks in an
// arbitrary interleaving. Callers must write only to locations owned by
// their block (or use atomics whose final state is order-independent);
// under that discipline the result is identical for every worker count,
// including 1.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns the effective worker count for w: w itself if
// positive, else GOMAXPROCS.
func Workers(w int) int {
	if w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// For runs body over [0, n) in blocks of grain indices, fanned across
// workers goroutines. body(lo, hi) receives half-open block bounds.
// workers <= 1 (or a range of one block) runs inline with no goroutines.
func For(workers, n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = 1
	}
	workers = Workers(workers)
	if workers > n/grain {
		workers = n / grain
	}
	if workers <= 1 {
		body(0, n)
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(cursor.Add(int64(grain))) - grain
				if lo >= n {
					return
				}
				hi := lo + grain
				if hi > n {
					hi = n
				}
				body(lo, hi)
			}
		}()
	}
	wg.Wait()
}
