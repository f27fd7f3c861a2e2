package core

import (
	"context"
	"sort"

	"repro/internal/relation"
)

// Incremental supports the real-time extension of Section 8: the engine
// explains the series once, caches every scored segment's
// top-explanations, and when new points arrive it recomputes only what
// the new data touches — top explanations involving new points, and a
// segmentation restricted to the previous cutting points plus the newly
// arrived positions.
//
// AppendRows is the streaming path: the delta flows through
// Relation.AppendRows into Universe.Append, extending every candidate's
// series inside the shared arena and registering candidates that first
// appear in the delta at the tail, so per-update cost scales with the
// delta, not with history.
type Incremental struct {
	eng      *Engine
	lastCuts []int
	lastN    int
}

// NewIncremental builds the incremental explainer over the initial
// relation snapshot and produces the first result. The relation is
// retained and extended in place by AppendRows; it must not be mutated
// elsewhere afterwards.
func NewIncremental(rel *relation.Relation, q Query, opts Options) (*Incremental, *Result, error) {
	return NewIncrementalCtx(nil, rel, q, opts)
}

// NewIncrementalCtx is NewIncremental with a cancellation context: the
// initial engine build and first explain observe ctx, so a streaming
// client with an expired deadline does not pay for a full cold build.
func NewIncrementalCtx(ctx context.Context, rel *relation.Relation, q Query, opts Options) (*Incremental, *Result, error) {
	eng, err := newEngine(ctx, rel, q, opts, true)
	if err != nil {
		return nil, nil, err
	}
	res, err := eng.explainPositionsK(ctx, nil, eng.opts.K)
	if err != nil {
		return nil, nil, err
	}
	inc := &Incremental{
		eng:      eng,
		lastCuts: res.Cuts(),
		lastN:    eng.u.NumTimestamps(),
	}
	return inc, res, nil
}

// AppendRows ingests a batch of raw rows — row-major, exactly the shape
// Relation.AppendRows takes — and returns the refreshed result. Rows must
// land at or after the previously last timestamp; new time labels extend
// the series, new categorical values grow the dictionaries, and slices
// first occurring in the delta become candidates without disturbing any
// existing candidate ID. Per-update cost is O(delta), not O(history).
func (inc *Incremental) AppendRows(timeVals []string, dims [][]string, measures [][]float64) (*Result, error) {
	oldN := inc.lastN
	if err := inc.eng.rel.AppendRows(timeVals, dims, measures); err != nil {
		return nil, err
	}
	return inc.ingest(oldN)
}

// ingest runs the post-append refresh: universe/filter extension, cache
// invalidation of just the changed suffix, and the Section 8 restricted
// re-segmentation.
func (inc *Incremental) ingest(oldN int) (*Result, error) {
	info, err := inc.eng.ingestAppended()
	if err != nil {
		return nil, err
	}
	newN := info.NewTimestamps
	// Drop cached segments that touch a changed position. Unlike the
	// snapshot path, the append path knows exactly which positions the
	// delta (and, under smoothing, its window) could have perturbed.
	inc.eng.InvalidateFrom(info.ChangedFrom)

	// ChangedFrom == 0 means everything is fair game again (a candidate
	// with mass from the very start crossed the support threshold, or
	// smoothing reached back to the start): previous cuts carry no
	// authority, so run the unrestricted pipeline for this update instead
	// of the Section 8 restriction.
	var positions []int
	if info.ChangedFrom > 0 {
		positions = appendPositions(oldN, newN, inc.lastCuts, info.ChangedFrom)
	}
	res, err := inc.eng.explainPositionsK(nil, positions, inc.eng.opts.K)
	if err != nil {
		return nil, err
	}
	inc.lastCuts = res.Cuts()
	inc.lastN = newN
	return res, nil
}

// appendPositions is the Section 8 position restriction, hardened for
// exact agreement with a from-scratch run on stable data. Candidate cut
// positions are:
//
//   - the previous cuts ("the existing time series' cutting points") and
//     each previous segment's midpoint, which keeps the K-Variance curve
//     deep enough that the elbow method behaves exactly as it does over
//     the unrestricted curve even when the delta is tiny;
//   - every position from the last committed interior cut to the end —
//     the still-open tail segment plus the newly arrived points. A regime
//     change reveals itself only a few points after it happens, so the
//     open tail must stay re-splittable at full resolution; segments
//     before it are committed and only their boundaries stay in play.
//
// Per-update segmentation cost is therefore O(tail²) DP cells over
// mostly cached segments. The open tail is short once cuts have
// committed (the typical streaming regime), but it deliberately spans
// the whole series while the segmentation is still K=1 — exactness
// against a from-scratch run takes precedence over capping the tail, and
// the per-segment caches keep even that case far below a rebuild.
// changedFrom is the first invalidated position: the open tail always
// extends back to it, so a mid-history invalidation (a support-filter
// flip on a candidate born mid-stream) stays re-splittable at full
// resolution. On a plain append it is at or after the previously last
// point and leaves the tail unchanged.
func appendPositions(oldN, newN int, lastCuts []int, changedFrom int) []int {
	posSet := map[int]bool{0: true, newN - 1: true}
	for _, c := range lastCuts {
		if c < newN-1 {
			posSet[c] = true
		}
	}
	for i := 1; i < len(lastCuts); i++ {
		if mid := (lastCuts[i-1] + lastCuts[i]) / 2; mid > 0 && mid < newN-1 {
			posSet[mid] = true
		}
	}
	// The open tail starts at the last interior cut strictly before the
	// previously last point (0 when the series is still one segment).
	openFrom := 0
	for _, c := range lastCuts {
		if c < oldN-1 && c > openFrom {
			openFrom = c
		}
	}
	if changedFrom < openFrom {
		openFrom = changedFrom
	}
	for p := openFrom; p < newN; p++ {
		if p > 0 {
			posSet[p] = true
		}
	}
	// Pad with a coarse power-of-two grid until the restricted K-Variance
	// curve reaches the same feasible depth (kMax segments) as the
	// unrestricted one — the elbow method normalizes K over the feasible
	// range, so a shallower curve would skew K selection. The grid is a
	// function of the grid stride alone, not of n, so its segments stay
	// cached across updates.
	if len(posSet) <= kMax {
		g := 1
		for (newN-1)/(2*g) >= kMax {
			g *= 2
		}
		for p := g; p < newN-1; p += g {
			posSet[p] = true
		}
	}
	positions := make([]int, 0, len(posSet))
	for p := range posSet {
		positions = append(positions, p)
	}
	sort.Ints(positions)
	return positions
}

// Engine returns the current underlying engine.
func (inc *Incremental) Engine() *Engine { return inc.eng }
