// Package segment implements TSExplain's K-Segmentation: the NDCG-based
// explanation distance (Section 4.1), the within-segment variance and its
// seven alternative designs (Section 4.2.2), the segmentation dynamic
// program (Section 5.1), the elbow-method selection of K (Section 6), and
// the sketching optimization (Section 5.3.2).
package segment

import (
	"time"

	"repro/internal/cascading"
	"repro/internal/explain"
)

// Explainer derives and caches top-m non-overlapping explanations per
// segment. Every module that needs E*_m for a segment — distance,
// variance, and the DP — goes through one Explainer so each segment's
// Cascading Analysts run happens at most once per query.
type Explainer struct {
	u      *explain.Universe
	solver *cascading.Solver
	m      int

	// allowed restricts selectable candidates (the filter optimization's
	// survivor set); nil allows everything.
	allowed []bool
	// ids is the selectable set as an ascending id list: the true entries
	// of allowed (every candidate when it is nil), or the budgeted
	// approximate mode's pruned top-M installed by SetRestriction.
	ids []int
	// table scores the selectable candidates for every solve. nil means
	// stale: it is built on the first solve after the selectable set or
	// the universe changed.
	table *explain.ScoreTable
	// useGuess enables the guess-and-verify optimization.
	useGuess  bool
	guessInit int

	cache *segCache

	// stats accumulate across calls for the latency-breakdown experiment.
	caSolves int
	caTime   time.Duration
	caRounds int
}

// ExplainerConfig configures an Explainer.
type ExplainerConfig struct {
	// M is the number of explanations per segment (default 3).
	M int
	// Allowed restricts selectable candidates; nil allows all.
	Allowed []bool
	// UseGuessVerify enables the guess-and-verify optimization.
	UseGuessVerify bool
	// GuessInit is the initial guess size m̄ (default 30, the paper's
	// choice for m = 3).
	GuessInit int
}

// NewExplainer returns an Explainer over the given universe.
func NewExplainer(u *explain.Universe, cfg ExplainerConfig) *Explainer {
	m := cfg.M
	if m <= 0 {
		m = 3
	}
	gi := cfg.GuessInit
	if gi <= 0 {
		gi = 30
	}
	return &Explainer{
		u:         u,
		solver:    cascading.NewSolver(u, m),
		m:         m,
		allowed:   cfg.Allowed,
		ids:       selectableIDs(u, cfg.Allowed),
		useGuess:  cfg.UseGuessVerify,
		guessInit: gi,
		cache:     newSegCache(u.NumTimestamps()),
	}
}

// selectableIDs lists the candidates allowed admits in ascending order:
// its true entries, or every candidate of u when it is nil.
func selectableIDs(u *explain.Universe, allowed []bool) []int {
	if allowed == nil {
		return u.AllCandidateIDs()
	}
	ids := []int{}
	for id := 0; id < u.NumCandidates() && id < len(allowed); id++ {
		if allowed[id] {
			ids = append(ids, id)
		}
	}
	return ids
}

// ScoreTable returns the table every solve scores from, building it over
// the selectable set if it is stale.
func (e *Explainer) ScoreTable() *explain.ScoreTable {
	if e.table == nil {
		e.table = explain.NewScoreTable(e.u, e.ids)
	}
	return e.table
}

// ScoreTableBytes is the heap footprint of the score table currently
// built, and 0 while it is stale.
func (e *Explainer) ScoreTableBytes() int64 {
	if e.table == nil {
		return 0
	}
	return e.table.Bytes()
}

// TopM returns the top-m non-overlapping explanations for segment [c, t],
// computing them on first use and serving the cache afterwards.
func (e *Explainer) TopM(c, t int) *cascading.Result {
	if r := e.cache.get(c, t); r != nil {
		return r
	}
	start := time.Now() //tsexplain:nondet latency stat only; never feeds explanation output
	tab := e.ScoreTable()
	var res cascading.Result
	var rounds int
	if e.useGuess {
		res, rounds = e.solver.GuessVerify(c, t, e.guessInit, tab)
	} else {
		res = e.solver.Solve(c, t, tab)
	}
	e.caRounds += rounds
	e.caTime += time.Since(start) //tsexplain:nondet latency stat only; never feeds explanation output
	e.caSolves++
	return e.cache.put(c, t, res)
}

// Stats reports how many Cascading Analysts solves ran, the total time
// they took, and (under guess-and-verify) the total guess rounds.
func (e *Explainer) Stats() (solves int, caTime time.Duration, rounds int) {
	return e.caSolves, e.caTime, e.caRounds
}

// ResetCache clears the per-segment cache and statistics. The incremental
// (real-time) extension keeps the cache instead and only recomputes
// segments that touch newly arrived points.
func (e *Explainer) ResetCache() {
	e.cache.reset()
	e.caSolves, e.caTime, e.caRounds = 0, 0, 0
}

// InvalidateFrom drops every cached segment that touches a point at or
// after position p. The real-time extension (Section 8) calls this when
// points after p changed (e.g. a revised last day) so stale explanations
// are recomputed while the unchanged prefix stays cached.
func (e *Explainer) InvalidateFrom(p int) {
	e.cache.invalidateFrom(p)
}

// segKeyShift sizes the packed (c, t) cache key; series up to 2^21 points
// are supported, far beyond anything the engine handles.
const segKeyShift = 21

// segKey packs segment endpoints into a cache key that stays valid when
// the series grows, which the real-time extension relies on.
func segKey(c, t int) int64 { return int64(c)<<segKeyShift | int64(t) }

// Grow retargets the explainer's caches at a series of length n without
// touching any cached result. The flat cache extends in place while its
// headroom lasts; past that, entries migrate verbatim into a fresh cache
// allocated with new headroom.
func (e *Explainer) Grow(n int) {
	e.cache = e.cache.resize(n)
}

// Appended retargets the explainer after its universe grew in place
// (Universe.Append, which keeps candidate IDs stable and registers
// delta-born candidates at the tail): the caches grow without remapping,
// the filter survivor set becomes allowed, and the score table rewrites
// only its rows from changedFrom — the first position whose series the
// append changed — on. The table is rebuilt only when the selectable set
// itself changed.
func (e *Explainer) Appended(allowed []bool, changedFrom int) {
	e.Grow(e.u.NumTimestamps())
	e.SetAllowed(allowed)
	if e.table != nil {
		e.table.Refresh(changedFrom)
	}
}

// SetAllowed replaces the selectable-candidate restriction for future
// solves (nil allows every candidate); the score table is dropped only
// when the selectable set actually changed. Cached segments keep the
// results they were computed with. It must not run while an
// approximate-mode restriction is installed.
func (e *Explainer) SetAllowed(allowed []bool) {
	e.allowed = allowed
	if e.table == nil || !e.table.Lists(allowed) {
		e.table = nil
		e.ids = selectableIDs(e.u, allowed)
	}
}

// SetRestriction installs the budgeted approximate mode's pruned
// selectable set: ids is the pruned top-M as an ascending list, retained
// by the explainer. nil ids clears the restriction and returns to solving
// over everything the filter's set admits. It drops every cached
// per-segment result — entries solved under a different selectable set
// would otherwise leak a differently pruned optimum into this
// configuration's answers.
func (e *Explainer) SetRestriction(ids []int) {
	if ids == nil {
		ids = selectableIDs(e.u, e.allowed)
	}
	e.ids = ids
	e.table = nil
	e.ResetCache()
}
