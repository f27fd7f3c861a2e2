package core

import (
	"sort"
	"time"

	"repro/internal/cascading"
	"repro/internal/explain"
)

// ApproxOptions configures the anytime approximate explanation path for
// high-cardinality datasets. Instead of letting every Cascading Analysts
// solve score all ε candidates, the engine ranks candidates once by a
// cheap segment-independent bound on their difference score (see
// explain.ContributionBounds), keeps only the top-M as selectable, and
// solves against that set — per-segment cost then scales with M, not ε.
// Every pruned candidate's score is bounded by the pruning threshold θ,
// which turns into a reported per-segment attribution-error bound; an
// anytime refinement loop grows M until the bound meets Epsilon, the
// candidate budget is exhausted, or the time budget / request deadline
// runs out — in which case the engine returns the best result so far
// instead of failing.
type ApproxOptions struct {
	// Enabled turns the approximate candidate path on.
	Enabled bool
	// MaxCandidates caps the selectable candidate set M (default 4096).
	MaxCandidates int
	// Epsilon is the target per-segment relative attribution-error bound
	// (default 0.05). Refinement stops as soon as every reported segment's
	// bound is ≤ Epsilon.
	Epsilon float64
	// TimeBudget bounds the wall-clock time the refinement loop may spend
	// growing M; 0 means unbounded (the request deadline still applies).
	TimeBudget time.Duration
}

// ApproxInfo reports what the approximate path did, attached to Result
// when approximate mode ran.
type ApproxInfo struct {
	// MaxCandidates and Epsilon echo the effective options.
	MaxCandidates int     `json:"maxCandidates"`
	Epsilon       float64 `json:"epsilon"`
	// CandidatesEligible is the candidate count after the support filter,
	// i.e. the set the bound ranking pruned from.
	CandidatesEligible int `json:"candidatesEligible"`
	// CandidatesUsed is the kept top-M of the final refinement round.
	CandidatesUsed int `json:"candidatesUsed"`
	// Theta is the difference-score upper bound of the best pruned
	// candidate — no excluded explanation can score above it on any
	// segment. 0 when nothing was pruned.
	Theta float64 `json:"theta"`
	// MaxErrBound is the worst per-segment relative attribution-error
	// bound of the reported segmentation (see Segment.ErrBound).
	MaxErrBound float64 `json:"maxErrBound"`
	// Rounds counts the refinement rounds that ran.
	Rounds int `json:"rounds"`
	// Truncated reports that the request deadline or TimeBudget stopped
	// refinement before MaxErrBound reached Epsilon; the result is the
	// best one computed so far, with its honest bounds.
	Truncated bool `json:"truncated"`
}

// approxState is the engine's cached candidate ranking for the
// approximate path, built once per (engine, data) state and reused across
// Explain calls and K values. Appends invalidate it — new data shifts the
// bounds.
type approxState struct {
	// sel, when non-nil, is the taxonomy-aware selector: each round's
	// selection comes from a subtree-pruned best-first walk instead of the
	// flat full ranking below (see explain.SubtreeBounds). Engaged when
	// the universe has a multi-level taxonomy and the workload's
	// contribution caps are sound.
	sel *explain.SubtreeBounds

	bounds []float64 // per-candidate γ upper bound over any segment
	// order lists the eligible candidate ids sorted by descending bound
	// (ties by ascending id), computed once; each refinement round's
	// selection is a prefix of it, so growing the budget never re-sorts.
	order    []int
	eligible int // candidates passing the support filter
	m        int // current kept-candidate budget
	m0       int // initial (coarse) budget, the anytime ramp's restart point
	// Installed selection (ids ascending) and its pruning threshold.
	ids   []int
	theta float64
	// installedM tracks which budget the explainer currently has
	// installed, so unchanged rounds skip the cache-dropping reinstall.
	installedM int
}

// approxEnsure builds (or returns) the candidate ranking and picks the
// initial budget: every candidate whose bound exceeds Epsilon times the
// overall series' own score bound is kept up front — segments whose
// attribution is on the order of the overall change then meet Epsilon in
// the first round — clamped into [4·M̄(min 32), MaxCandidates], and never
// above an eighth of the eligible set, so the first round is always a
// genuinely coarse anytime answer and a tight Epsilon ramps up through
// refinement instead of starting at full exactness.
func (e *Engine) approxEnsure() *approxState {
	if e.approx != nil {
		return e.approx
	}
	if e.u.HasTaxonomy() {
		if sel := explain.NewSubtreeBounds(e.u); sel != nil {
			// Taxonomy path: no full ranking exists to take the
			// Epsilon-scaled cut from, so the initial budget is just the
			// coarse floor, clamped like the flat path's.
			a := &approxState{sel: sel, installedM: -1}
			a.eligible = e.u.NumCandidates()
			if e.allowed != nil {
				a.eligible = 0
				for _, ok := range e.allowed {
					if ok {
						a.eligible++
					}
				}
			}
			m0 := 4 * e.opts.M
			if m0 < 32 {
				m0 = 32
			}
			if m0 > e.opts.Approx.MaxCandidates {
				m0 = e.opts.Approx.MaxCandidates
			}
			if m0 > a.eligible {
				m0 = a.eligible
			}
			a.m = m0
			a.m0 = m0
			e.approx = a
			return a
		}
	}
	a := &approxState{bounds: e.u.ContributionBounds(e.allowed), installedM: -1}
	a.order = make([]int, 0, len(a.bounds))
	for id := range a.bounds {
		if e.allowed == nil || e.allowed[id] {
			a.order = append(a.order, id)
		}
	}
	a.eligible = len(a.order)
	explain.SortByBound(a.order, a.bounds)

	totals := e.u.TotalValues()
	scale := 0.0
	if len(totals) > 0 {
		mn, mx := totals[0], totals[0]
		for _, v := range totals {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		scale = mx - mn
	}
	cut := e.opts.Approx.Epsilon * scale
	m0 := sort.Search(len(a.order), func(i int) bool { return a.bounds[a.order[i]] <= cut })
	lo := 4 * e.opts.M
	if lo < 32 {
		lo = 32
	}
	if ramp := a.eligible / 8; m0 > ramp {
		m0 = ramp
	}
	if m0 < lo {
		m0 = lo
	}
	if m0 > e.opts.Approx.MaxCandidates {
		m0 = e.opts.Approx.MaxCandidates
	}
	if m0 > a.eligible {
		m0 = a.eligible
	}
	a.m = m0
	a.m0 = m0
	e.approx = a
	return a
}

// installApprox makes the explainer solve against the current top-m
// selection. A changed selection drops every cached per-segment result
// and the persistent variance calculator — they were computed under a
// different selectable set.
func (e *Engine) installApprox(a *approxState) {
	if a.installedM == a.m {
		return
	}
	if a.sel != nil {
		// Subtree-pruned walk: exact bounds are memoized inside the
		// selector, so a grown budget re-scans only newly reached
		// candidates.
		a.ids, a.theta = a.sel.SelectTop(e.allowed, a.m)
	} else {
		// The selection is always a prefix of the precomputed order, so a
		// grown budget costs O(M log M) for the ascending re-sort, not a
		// fresh O(ε log ε) ranking.
		a.ids = append([]int(nil), a.order[:a.m]...)
		sort.Ints(a.ids)
		a.theta = 0
		if a.m < len(a.order) {
			a.theta = a.bounds[a.order[a.m]]
		}
	}
	e.exp.SetRestriction(a.ids)
	e.vc = nil
	a.installedM = a.m
}

// annotateApprox attaches the per-segment error bounds and residual
// ("other") explanations plus the run-level ApproxInfo.
//
// The bound, in the style of the guess-and-verify condition (Eq. 12):
// the exact optimum over a segment selects at most M̄ non-overlapping
// explanations, of which some j came from the pruned set. The kept ones
// total at most the approximate DP's Best[M̄−j]; each pruned one scores
// at most θ on any segment. So
//
//	exactBest ≤ max_{0 ≤ j ≤ min(M̄, pruned)} Best[M̄−j] + j·θ,
//
// and whenever the solver's own marginal picks all score above θ the
// bound collapses to zero — pruning provably cost nothing for that
// segment. The relative form reported is A/(Best[M̄] + A) with A the
// excess over Best[M̄], a sound bound on (exact − approx)/exact.
func (e *Engine) annotateApprox(res *Result, a *approxState, rounds int) {
	pruned := a.eligible - len(a.ids)
	maxErr := 0.0
	for i := range res.Segments {
		seg := &res.Segments[i]
		top := e.exp.TopM(seg.Start, seg.End)
		mm := len(top.Best) - 1
		gained := top.Best[mm]
		absBound := 0.0
		jmax := mm
		if pruned < jmax {
			jmax = pruned
		}
		for j := 1; j <= jmax; j++ {
			if excess := top.Best[mm-j] + float64(j)*a.theta - gained; excess > absBound {
				absBound = excess
			}
		}
		if absBound > 0 {
			seg.ErrBound = absBound / (gained + absBound)
		} else {
			seg.ErrBound = 0
		}
		if seg.ErrBound > maxErr {
			maxErr = seg.ErrBound
		}
		seg.Other = e.buildOther(seg.Start, seg.End, top.Explanations)
	}
	res.Approx = &ApproxInfo{
		MaxCandidates:      e.opts.Approx.MaxCandidates,
		Epsilon:            e.opts.Approx.Epsilon,
		CandidatesEligible: a.eligible,
		CandidatesUsed:     len(a.ids),
		Theta:              a.theta,
		MaxErrBound:        maxErr,
		Rounds:             rounds,
	}
}

// buildOther aggregates everything the segment's reported explanations do
// not cover into one exact residual pseudo-explanation: reported
// trendlines plus this one reproduce the overall series over the segment
// exactly, however aggressively candidates were pruned (the reported set
// is non-overlapping, so the decomposed subtraction is the true state of
// the complement slice).
func (e *Engine) buildOther(a, b int, picked []cascading.Picked) *Explanation {
	ids := make([]int, len(picked))
	for i, p := range picked {
		ids[i] = p.ID
	}
	rs := e.u.ResidualSeries(ids)[a : b+1]
	f := e.u.Agg()
	vals := make([]float64, len(rs))
	for i, sc := range rs {
		vals[i] = f.Eval(sc.Sum, sc.Count)
	}
	tot := e.u.TotalSeries()
	gamma, effect := explain.Score(f, tot[a], tot[b], rs[0], rs[len(rs)-1])
	return &Explanation{
		Predicates: "(other)",
		Gamma:      gamma,
		Effect:     effect,
		Values:     vals,
	}
}
