package explain

import (
	"math"
	"sort"

	"repro/internal/relation"
)

// This file implements subtree bound-pruning over the taxonomy-shaped
// candidate DAG: the hierarchy-aware replacement for the flat
// ContributionBounds + SelectTopBounds ranking. The flat path scores all
// ε candidates; here a best-first walk descends the drill-down DAG and
// prunes whole subtrees by a per-candidate cap that dominates every
// descendant's exact bound, so a 50k-leaf taxonomy whose mass sits in a
// few subtrees scores only the candidates near the top.
//
// Soundness rests on slice containment: along both extension edges
// (adding a predicate) and taxonomy edges (refining a level), the child's
// slice is a subset of the parent's. For COUNT always — and for SUM when
// every measure value is non-negative — the per-timestamp effect
// φ_E(t) = f(tot_t) − f(tot_t − e_t) is then pointwise non-negative and
// monotone non-increasing down every edge (smoothing, a non-negative
// moving average, preserves both). Hence
//
//	cap(E) = max_t φ_E(t)
//
// dominates the exact bound max φ − min φ of E and of every DAG
// descendant of E. Aggregates without that property (AVG, or SUM over
// signed measures) return a nil selector and the engine falls back to the
// flat ranking.

// SubtreeBounds is the taxonomy-aware top-M candidate selector. Exact
// bounds and caps are memoized per candidate, so the anytime refinement
// loop's growing budgets re-scan only newly visited candidates. Not safe
// for concurrent use; the owning engine serializes access like every
// other per-engine cache.
type SubtreeBounds struct {
	u    *Universe
	fTot []float64 // f(total) per timestamp

	computed []bool    // bounds/caps valid for this candidate
	bounds   []float64 // exact φ-range bound (ContributionBounds formula)
	caps     []float64 // max_t φ — the subtree dominator

	seen  []uint32 // per-walk frontier dedup, epoch-stamped
	epoch uint32

	// Visited counts candidates whose series were scanned across all
	// SelectTop calls — the work the walk did, reported for benchmarks.
	Visited int
}

// NewSubtreeBounds returns a selector for u, or nil when the universe has
// no multi-level taxonomy or the workload is not prunable (the cap is
// sound only for COUNT, or SUM over a non-negative measure).
func NewSubtreeBounds(u *Universe) *SubtreeBounds {
	if !u.HasTaxonomy() {
		return nil
	}
	switch u.agg {
	case relation.Count:
	case relation.Sum:
		r := u.rel
		for row := 0; row < r.NumRows(); row++ {
			v := r.MeasureValue(u.measure, row)
			if v < 0 || math.IsNaN(v) {
				return nil
			}
		}
	default:
		return nil
	}
	return &SubtreeBounds{
		u:        u,
		fTot:     u.TotalValues(),
		computed: make([]bool, len(u.cands)),
		bounds:   make([]float64, len(u.cands)),
		caps:     make([]float64, len(u.cands)),
		seen:     make([]uint32, len(u.cands)),
	}
}

// visit computes (memoized) candidate id's exact bound and cap with one
// scan of its series — the φ-range kernel ContributionBounds runs, against
// the same active series views.
//
//tsexplain:hotpath
func (sb *SubtreeBounds) visit(id int) {
	if sb.computed[id] {
		return
	}
	u := sb.u
	mn, mx := phiRange(u.agg, u.total, sb.fTot, u.cands[id].Series)
	sb.bounds[id] = mx - mn
	sb.caps[id] = mx
	sb.computed[id] = true
	sb.Visited++
}

// pushChildren pushes id's unseen DAG children onto the frontier with
// estimate est (id's cap — an upper bound on every descendant's exact
// bound). Descent follows only taxonomy-respecting edges: a dimension at
// kept level k ≥ 1 is entered only when the node already holds the
// level-(k−1) predicate of the same hierarchy, so deep levels are reached
// through their roll-up chain and never by the flat extension shortcut
// that would bypass the caps. Every candidate stays reachable — the
// shortcut's targets are exactly the tax children of the chain.
//
//tsexplain:hotpath
func (sb *SubtreeBounds) pushChildren(fr *boundHeap, id int, est float64) {
	u := sb.u
	var conj relation.Conjunction
	if id >= 0 {
		conj = u.cands[id].Conj
	}
	for p, d := range u.explainBy {
		if hi := u.hierOf[p]; hi >= 0 && u.hierLevel[p] > 0 {
			prev := u.hier[hi].dims[u.hierLevel[p]-1]
			has := false
			for _, pr := range conj {
				if pr.Dim == prev {
					has = true
					break
				}
			}
			if !has {
				continue
			}
		}
		for _, kid := range u.ChildrenOf(id, d) {
			if sb.seen[kid] == sb.epoch {
				continue
			}
			sb.seen[kid] = sb.epoch
			fr.push(est, int32(kid))
		}
	}
}

// SelectTop picks the ids of the (at most max) candidates with the
// largest exact bounds among the eligible set (allowed nil means every
// candidate), like SelectTopBounds, but via the pruned best-first walk.
// It returns the kept ids ascending and theta, a sound upper bound on the
// exact bound of every eligible candidate NOT kept: the maximum of the
// dropped visited bounds, the caps of pruned subtrees, and the frontier
// estimate at early stop — each of which dominates its unvisited share.
func (sb *SubtreeBounds) SelectTop(allowed []bool, max int) (ids []int, theta float64) {
	if max < 0 {
		max = 0
	}
	sb.epoch++
	var fr boundHeap
	sb.pushChildren(&fr, -1, math.Inf(1))

	var kept keptHeap
	dropMax, prunedMax, stopEst := 0.0, 0.0, 0.0
	for len(fr) > 0 {
		est, id := fr.pop()
		if len(kept) == max && est <= kept.minBound() {
			// Everything still enqueued (and its descendants) is bounded
			// by est ≤ the worst kept bound; the kept set is final.
			stopEst = est
			break
		}
		sb.visit(int(id))
		b, cp := sb.bounds[id], sb.caps[id]
		if allowed == nil || allowed[id] {
			if len(kept) < max {
				kept.push(b, id)
			} else if max > 0 && (b > kept[0].est || (b == kept[0].est && id < kept[0].id)) {
				dropped := kept.replaceMin(b, id)
				if dropped > dropMax {
					dropMax = dropped
				}
			} else if b > dropMax {
				dropMax = b
			}
		}
		if len(kept) == max && cp <= kept.minBound() {
			// No descendant's exact bound can beat the kept set: the whole
			// subtree below id stays unscored.
			if cp > prunedMax {
				prunedMax = cp
			}
			continue
		}
		sb.pushChildren(&fr, int(id), cp)
	}
	theta = dropMax
	if prunedMax > theta {
		theta = prunedMax
	}
	if stopEst > theta {
		theta = stopEst
	}
	ids = make([]int, len(kept))
	for i, e := range kept {
		ids[i] = int(e.id)
	}
	sort.Ints(ids)
	return ids, theta
}

// boundEntry is one heap element: a candidate id with a float key.
type boundEntry struct {
	est float64
	id  int32
}

// boundHeap is a hand-rolled max-heap of (est desc, id asc) — the
// frontier ordering of the best-first walk. container/heap's interface
// would box every element and close over the slice; the walk is a hot
// path, so the sift loops are written out.
type boundHeap []boundEntry

// frontBefore orders the frontier: larger estimate first, smaller id on
// ties, so pops are deterministic.
func frontBefore(a, b boundEntry) bool {
	if a.est != b.est {
		return a.est > b.est
	}
	return a.id < b.id
}

//tsexplain:hotpath
func (h *boundHeap) push(est float64, id int32) {
	*h = append(*h, boundEntry{est: est, id: id})
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !frontBefore(s[i], s[p]) {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

//tsexplain:hotpath
func (h *boundHeap) pop() (est float64, id int32) {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	s = s[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(s) && frontBefore(s[l], s[best]) {
			best = l
		}
		if r < len(s) && frontBefore(s[r], s[best]) {
			best = r
		}
		if best == i {
			break
		}
		s[i], s[best] = s[best], s[i]
		i = best
	}
	return top.est, top.id
}

// keptHeap is a hand-rolled min-heap over (bound asc, id desc): the root
// is the replacement victim — the smallest kept bound, largest id on
// ties, matching SelectTopBounds' descending-bound/ascending-id ranking.
type keptHeap []boundEntry

// keptBefore orders the kept heap: smaller bound first, larger id on
// ties.
func keptBefore(a, b boundEntry) bool {
	if a.est != b.est {
		return a.est < b.est
	}
	return a.id > b.id
}

// minBound is the smallest kept bound, −Inf when nothing is kept (so a
// zero budget never prunes or stops on an empty set).
//
//tsexplain:hotpath
func (h keptHeap) minBound() float64 {
	if len(h) == 0 {
		return math.Inf(-1)
	}
	return h[0].est
}

//tsexplain:hotpath
func (h *keptHeap) push(bound float64, id int32) {
	*h = append(*h, boundEntry{est: bound, id: id})
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !keptBefore(s[i], s[p]) {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

// replaceMin swaps the root for the new entry and returns the evicted
// bound.
//
//tsexplain:hotpath
func (h *keptHeap) replaceMin(bound float64, id int32) float64 {
	s := *h
	dropped := s[0].est
	s[0] = boundEntry{est: bound, id: id}
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(s) && keptBefore(s[l], s[best]) {
			best = l
		}
		if r < len(s) && keptBefore(s[r], s[best]) {
			best = r
		}
		if best == i {
			break
		}
		s[i], s[best] = s[best], s[i]
		i = best
	}
	return dropped
}
