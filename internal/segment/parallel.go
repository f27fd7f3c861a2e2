package segment

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cascading"
)

// PrewarmParallelCancel computes and caches the top-m explanations for
// every given segment using worker goroutines, each with its own Cascading
// Analysts solver (solvers reuse scratch buffers and are not safe to
// share) reading the explainer's one score table. The paper's engine is
// single-threaded; this is the natural Go extension for multi-core
// machines — results are identical, only the wall-clock time changes.
//
// workers ≤ 0 uses GOMAXPROCS. Already-cached segments are skipped. The
// summed per-worker solve time is added to the explainer's cascading
// counter, so the Figure 15 breakdown reports CPU time when parallelism
// is on.
//
// cancel (when non-nil) is polled before each segment solve, and a
// non-nil return makes every worker stop picking up new segments.
// Segments solved before the cancellation are still cached — the cache
// stays consistent, the work simply stops early — and the count of
// completed solves is returned. The caller is expected to surface the
// cancellation error itself.
//
//tsexplain:cancellable
func (e *Explainer) PrewarmParallelCancel(segs [][2]int, workers int, cancel func() error) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cancel == nil {
		cancel = func() error { return nil }
	}
	var todo [][2]int
	for _, s := range segs {
		if e.cache.get(s[0], s[1]) == nil {
			todo = append(todo, s)
		}
	}
	if len(todo) == 0 {
		return 0
	}
	if workers > len(todo) {
		workers = len(todo)
	}

	type done struct {
		seg [2]int
		res cascading.Result
		ok  bool
	}
	// Every worker scores from the one shared, read-only table.
	tab := e.ScoreTable()
	results := make([]done, len(todo))
	var caTimes = make([]time.Duration, workers)
	var rounds = make([]int, workers)
	var stopped atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			solver := cascading.NewSolver(e.u, e.solver.Metric(), e.m)
			start := time.Now() //tsexplain:nondet per-worker latency stat; never feeds explanation output
			for i := w; i < len(todo); i += workers {
				if stopped.Load() {
					break
				}
				if cancel() != nil {
					stopped.Store(true)
					break
				}
				seg := todo[i]
				res, r := e.solveOne(solver, tab, seg[0], seg[1])
				rounds[w] += r
				results[i] = done{seg: seg, res: res, ok: true}
			}
			caTimes[w] = time.Since(start) //tsexplain:nondet per-worker latency stat; never feeds explanation output
		}(w)
	}
	wg.Wait()

	solved := 0
	for i := range results {
		if !results[i].ok {
			continue
		}
		e.cache.put(results[i].seg[0], results[i].seg[1], results[i].res)
		solved++
	}
	for w := 0; w < workers; w++ {
		e.caTime += caTimes[w]
		e.caRounds += rounds[w]
	}
	e.caSolves += solved
	return solved
}

// SegmentPairs enumerates every segment the segmentation DP will need
// over the given candidate cut positions: all position pairs plus the
// unit objects in between (the objects of Eq. 7). It is the work list
// PrewarmParallelCancel consumes.
func SegmentPairs(positions []int, n int, unitObjects bool) [][2]int {
	var out [][2]int
	for i := 0; i < len(positions); i++ {
		for j := i + 1; j < len(positions); j++ {
			out = append(out, [2]int{positions[i], positions[j]})
		}
	}
	if unitObjects {
		for x := 0; x+1 < n; x++ {
			out = append(out, [2]int{x, x + 1})
		}
	}
	return out
}
