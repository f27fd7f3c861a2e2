package explain

import "repro/internal/relation"

// smoothState holds the smoothed views of an arena-backed universe: the
// smoothed candidate arena and overall series the engine actually scores,
// plus (for streaming universes) the raw prefix sums that let Append
// recompute just the tail window with arithmetic identical to a
// from-scratch moving average.
type smoothState struct {
	window int
	arena  []relation.SumCount // smoothed candidate series, stride arenaCap
	total  []relation.SumCount // smoothed overall series
	// prefix[id*(arenaCap+1)+i] is the raw prefix sum of candidate id's
	// series over [0, i); nil unless the universe streams.
	prefix    []relation.SumCount
	totPrefix []relation.SumCount // raw prefix sums of the overall series
}

// fillPrefix extends prefix in place: prefix[i+1] = prefix[i] + raw[i]
// for i in [from, len(raw)), component-wise. Sequential per-component
// addition from the front is exactly how timeseries.MovingAverage builds
// its prefix array, which keeps incremental re-smoothing bit-identical to
// a from-scratch smooth.
func fillPrefix(prefix, raw []relation.SumCount, from int) {
	for i := from; i < len(raw); i++ {
		p := prefix[i]
		p.Sum += raw[i].Sum
		p.Count += raw[i].Count
		prefix[i+1] = p
	}
}

// smoothRange writes out[i] for i in [from, T): the centered moving
// average with edge clamping, derived from the raw prefix sums with the
// same arithmetic as timeseries.MovingAverage.
func smoothRange(out, prefix []relation.SumCount, T, window, from int) {
	half := window / 2
	for i := from; i < T; i++ {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi >= T {
			hi = T - 1
		}
		d := float64(hi - lo + 1)
		out[i] = relation.SumCount{
			Sum:   (prefix[hi+1].Sum - prefix[lo].Sum) / d,
			Count: (prefix[hi+1].Count - prefix[lo].Count) / d,
		}
	}
}

// Smooth applies a centered moving average of the given window to the
// overall series and to every candidate's series (both the sum and count
// components, so every aggregate stays decomposable). The paper applies
// this to very fuzzy datasets before explaining them (Section 7.4).
// window <= 1 is a no-op. Smoothing is applied to the Universe rather
// than the raw relation so the relation stays exact for other queries.
//
// Smooth is called once, on a freshly built or restored universe. The
// smoothed series live in a second candidate-major arena; a streaming
// universe retains the raw arena and its prefix sums so Append can extend
// the series and re-smooth only the tail window each new point perturbs,
// and a one-shot universe drops its raw arena.
func (u *Universe) Smooth(window int) {
	if window <= 1 {
		return
	}
	T := len(u.total)
	capA := u.arenaCap
	sm := &smoothState{window: window}
	sm.totPrefix = make([]relation.SumCount, T+1, capA+1)
	fillPrefix(sm.totPrefix, u.rawTotal, 0)
	sm.total = make([]relation.SumCount, T, capA)
	smoothRange(sm.total, sm.totPrefix, T, window, 0)

	sm.arena = make([]relation.SumCount, len(u.raw))
	var scratch []relation.SumCount
	if u.stream != nil {
		sm.prefix = make([]relation.SumCount, (len(u.raw)/capA)*(capA+1))
	} else {
		scratch = make([]relation.SumCount, T+1)
	}
	for id, c := range u.cands {
		rawS := u.raw[id*capA : id*capA+T]
		pref := scratch
		if sm.prefix != nil {
			pref = sm.prefix[id*(capA+1) : id*(capA+1)+T+1]
		}
		fillPrefix(pref, rawS, 0)
		smoothRange(sm.arena[id*capA:id*capA+T], pref, T, window, 0)
		c.Series = sm.arena[id*capA : id*capA+T : (id+1)*capA]
	}
	u.total = sm.total
	u.smooth = sm
	if u.stream == nil {
		// One-shot universes never append; drop the raw arena so memory
		// matches the pre-streaming layout (one arena's worth). When the
		// arena aliased a snapshot mapping, release the mapping too — a
		// smoothed universe is fully resident and no slice points into
		// the mapped bytes anymore.
		u.raw = nil
		if u.backing != nil {
			u.backing.Close()
			u.backing = nil
		}
		u.arenaMapped = false
	}
}
