package segment

import (
	"math"

	"repro/internal/cascading"
	"repro/internal/explain"
)

// gammaMemo caches γ(target, id) for a VarCalc's distance loop, so each
// (target, id) relevance is scored at most once while it stays valid, and
// only for the ids a DCG actually asks for. Two kinds of target recur:
//
//   - the centroid of the Weighted call in progress, whose γ is asked for
//     the ids of every object inside it. That memo is dense over candidate
//     ids and generation-tagged, so starting a new centroid is O(1);
//   - each object, whose γ is asked for the ids of every centroid that
//     contains it (up to L centroids per object in the sketch phase, every
//     pair of positions around it in phase 2) and, under AllPair, of every
//     other object. That memo holds one row per candidate id asked of any
//     object, with one entry per object.
//
// Every value is what Universe.Gamma returns for the same arguments, so a
// memoized distance is bit-identical to one scored directly.
//
// The object memo grows one row per distinct id and is capped at one entry
// per slot of a flat segment triangle over min(n, flatCacheMaxN) points
// (n(n−1)/2 entries of 9 bytes); ids past the cap are scored directly.
// The centroid memo costs 13 bytes per candidate.
type gammaMemo struct {
	u      *explain.Universe
	metric explain.Metric

	cenCur   uint32
	cenGen   []uint32
	cenGamma []float64
	cenEff   []explain.Effect

	objs     int     // objects per row
	maxRows  int32   // rows the cap admits
	rowOf    []int32 // candidate id → row, −1 when it has none
	rows     int32
	objGamma []float64        // objGamma[row*objs+obj]
	objEff   []explain.Effect // noEffect marks an entry not yet scored
}

// noEffect marks an object-memo entry that holds no value yet.
const noEffect explain.Effect = math.MinInt8

// reset empties the memo and retargets it at universe u, scoring under
// metric, for objs objects over a series of n points. Buffers are kept.
func (m *gammaMemo) reset(u *explain.Universe, metric explain.Metric, objs, n int) {
	m.u, m.metric, m.objs = u, metric, objs
	nc := u.NumCandidates()
	if len(m.cenGen) != nc {
		m.cenGen = make([]uint32, nc)
		m.cenGamma = make([]float64, nc)
		m.cenEff = make([]explain.Effect, nc)
		m.cenCur = 0
		m.rowOf = make([]int32, nc)
	}
	for i := range m.rowOf {
		m.rowOf[i] = -1
	}
	if n > flatCacheMaxN {
		n = flatCacheMaxN
	}
	m.maxRows = 0
	if objs > 0 {
		m.maxRows = int32(n * (n - 1) / 2 / objs)
	}
	m.rows = 0
	m.objGamma = m.objGamma[:0]
	m.objEff = m.objEff[:0]
}

// valid reports whether the memo was last reset for universe u and objs
// objects.
func (m *gammaMemo) valid(u *explain.Universe, objs int) bool {
	return m.u == u && m.objs == objs && len(m.cenGen) == u.NumCandidates()
}

// drop marks the memo stale; the next use empties it.
func (m *gammaMemo) drop() { m.u = nil }

// center starts a new centroid: every centroid entry becomes stale.
func (m *gammaMemo) center() {
	m.cenCur++
	if m.cenCur == 0 { // wrapped: clear the tags once
		clear(m.cenGen)
		m.cenCur = 1
	}
}

// dcg is the discounted cumulative gain of the ranked explanation list
// expl (derived on its home segment) against the target segment (Eq. 3):
// relevance is γ(E, target), rectified to zero when E's change effect
// differs between its home segment and the target (Table 2) unless
// rectify is off, which the ablation uses. Memo hits are read in the
// loop; misses score in gammaMiss.
//
//tsexplain:hotpath
func (m *gammaMemo) dcg(target *side, expl []cascading.Picked, rectify bool) float64 {
	var sum float64
	for r, p := range expl {
		gamma, effect := 0.0, noEffect
		if target.obj < 0 {
			if m.cenGen[p.ID] == m.cenCur {
				gamma, effect = m.cenGamma[p.ID], m.cenEff[p.ID]
			}
		} else if row := m.rowOf[p.ID]; row >= 0 {
			i := int(row)*m.objs + target.obj
			gamma, effect = m.objGamma[i], m.objEff[i]
		}
		if effect == noEffect {
			gamma, effect = m.gammaMiss(target, p.ID)
		}
		if rectify && effect != p.Effect {
			gamma = 0
		}
		sum += gamma * discount(r)
	}
	return sum
}

// gammaMiss scores candidate id over the target and stores the value
// where dcg looks for it, giving the id an object row if it has none and
// the cap admits one.
func (m *gammaMemo) gammaMiss(target *side, id int) (float64, explain.Effect) {
	g, eff := m.u.Gamma(id, target.c, target.t, m.metric)
	if target.obj < 0 {
		m.cenGen[id], m.cenGamma[id], m.cenEff[id] = m.cenCur, g, eff
		return g, eff
	}
	row := m.rowOf[id]
	if row < 0 {
		if row = m.addRow(id); row < 0 {
			return g, eff
		}
	}
	i := int(row)*m.objs + target.obj
	m.objGamma[i], m.objEff[i] = g, eff
	return g, eff
}

// addRow gives candidate id a row of unscored entries and returns it, or
// −1 when the cap is reached.
func (m *gammaMemo) addRow(id int) int32 {
	if m.rows >= m.maxRows {
		return -1
	}
	row := m.rows
	m.rows++
	m.rowOf[id] = row
	m.objGamma = append(m.objGamma, make([]float64, m.objs)...)
	start := len(m.objEff)
	m.objEff = append(m.objEff, make([]explain.Effect, m.objs)...)
	for i := start; i < len(m.objEff); i++ {
		m.objEff[i] = noEffect
	}
	return row
}

// bytes is the memo's heap footprint.
func (m *gammaMemo) bytes() int64 {
	return 13*int64(cap(m.cenGen)) + 4*int64(cap(m.rowOf)) +
		8*int64(cap(m.objGamma)) + int64(cap(m.objEff))
}
