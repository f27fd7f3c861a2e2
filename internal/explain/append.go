package explain

import (
	"fmt"

	"repro/internal/relation"
)

// This file implements the universe's one growth path and the append path
// built on it — the heart of the real-time extension's O(delta)
// ingestion. A fresh build grows an empty universe over every relation
// row; a universe built with Config.Streaming retains its group-by plans
// and lays every candidate's series out in a candidate-major arena with
// tail headroom, and Append then grows it over only the rows added to the
// relation since the last call:
//
//   - each plan discovers the rows' groups and extends its slot map
//     (pass 1 over the new rows only);
//   - groups first occurring in the rows become candidates registered at
//     the tail of the candidate list, so every existing candidate ID —
//     and with it every cached per-segment result — stays valid with no
//     remapping;
//   - the rows' contributions are accumulated into the arena in row
//     order, which keeps every series bit-identical to a from-scratch
//     build over the full relation;
//   - when the universe is smoothed, only the tail window the new points
//     perturb is re-smoothed, from incrementally maintained prefix sums.

// AppendInfo reports what one Universe.Append consumed and touched.
type AppendInfo struct {
	// OldTimestamps and NewTimestamps are the series lengths before and
	// after the append.
	OldTimestamps, NewTimestamps int
	// OldCandidates and NewCandidates count the candidates before the
	// append and the ones the delta introduced at the tail.
	OldCandidates, NewCandidates int
	// Rows is the number of relation rows consumed.
	Rows int
	// ChangedFrom is the first series position whose (possibly smoothed)
	// values may differ from before the append; cached per-segment state
	// for segments entirely before it stays valid.
	ChangedFrom int
}

// Append consumes the relation rows added since the universe was built
// (or since the previous Append) and extends the universe in place:
// series grow inside the shared arena, and candidates first occurring in
// the delta are registered after all existing ones. The cost is
// O(delta rows + candidates), not O(history). It returns an error when
// the universe was not built with Config.Streaming or when appended rows
// reach back before the previously last timestamp.
func (u *Universe) Append() (AppendInfo, error) {
	st := u.stream
	if st == nil {
		return AppendInfo{}, fmt.Errorf("explain: universe was not built for streaming (Config.Streaming)")
	}
	r := u.rel
	oldT := len(u.total)
	newT := r.NumTimestamps()
	fromRow := st.ingested
	nRows := r.NumRows()
	info := AppendInfo{
		OldTimestamps: oldT,
		NewTimestamps: newT,
		OldCandidates: len(u.cands),
		Rows:          nRows - fromRow,
		ChangedFrom:   newT,
	}
	if fromRow == nRows {
		return info, nil
	}

	// The earliest position the delta touches. Relation.AppendRows only
	// admits rows at or after the previously last timestamp; re-check so
	// a relation mutated some other way fails loudly instead of silently
	// corrupting cached state.
	p0 := newT
	for row := fromRow; row < nRows; row++ {
		if t := r.TimeIndex(row); t < p0 {
			p0 = t
		}
	}
	if p0 < oldT-1 {
		return info, fmt.Errorf("explain: appended rows reach back to position %d; only the last position %d may be revised", p0, oldT-1)
	}

	if newT > u.arenaCap {
		u.growArenaCap(oldT, newT+newT/2)
	}
	if err := u.grow(st, fromRow, nil); err != nil {
		return info, err
	}
	info.NewCandidates = len(u.cands) - info.OldCandidates
	info.ChangedFrom = p0
	if u.smooth != nil {
		info.ChangedFrom = u.resmoothTail(p0, newT, info.OldCandidates)
	}
	return info, nil
}

// grow consumes the relation rows [fromRow, NumRows) — every row on a
// fresh build, the delta on an append — in two passes over st's group-by
// plans:
//
//   - pass 1 extends each subset's plan with the rows' groups and
//     registers the new ones as candidates after every existing one,
//     subset-major and rank-ascending;
//   - pass 2 adds the rows into the arena in row order.
//
// The new candidates are then linked, the raw overall series is extended
// in the same row order, and every candidate's series is re-pointed at
// the new length. cancel, when non-nil, is polled between subsets in both
// passes.
func (u *Universe) grow(st *streamState, fromRow int, cancel func() error) error {
	if cancel == nil {
		cancel = func() error { return nil }
	}
	r := u.rel
	old := len(u.cands)
	for si, subset := range st.subsets {
		if err := cancel(); err != nil {
			return err
		}
		p := st.plans[si]
		if p == nil {
			p = r.PlanGroupBy(subset, u.measure)
			st.plans[si] = p
		} else {
			p.AppendRows(fromRow)
		}
		for g := len(st.candOf[si]); g < p.NumGroups(); g++ {
			ids := p.GroupIDsAt(g)
			conj := make(relation.Conjunction, len(subset))
			for i, d := range subset {
				conj[i] = relation.Pred{Dim: d, Value: ids[i]}
			}
			id := len(u.cands)
			u.cands = append(u.cands, &Candidate{ID: id, Conj: conj})
			u.index.insert(conj, id)
			st.candOf[si] = append(st.candOf[si], id)
		}
	}

	// A fresh build sizes the arena once: exactly for a one-shot universe,
	// with the append path's slot headroom for a streaming one.
	n := len(u.cands)
	if u.raw == nil {
		slots := n
		if u.stream != nil {
			slots += n/4 + 16
		}
		u.raw = make([]relation.SumCount, slots*u.arenaCap)
	}
	for id := old; id < n; id++ {
		u.ensureSlot(id)
	}

	T, capA := r.NumTimestamps(), u.arenaCap
	for si, p := range st.plans {
		if err := cancel(); err != nil {
			return err
		}
		candOf := st.candOf[si]
		if fromRow == 0 {
			// Every group is new, so the plan's candidates are consecutive
			// in rank order: fill them through the plan's slot record.
			if len(candOf) > 0 {
				p.FillArena(u.raw[candOf[0]*capA:], capA)
			}
			continue
		}
		p.FillRows(fromRow, func(rank int) []relation.SumCount {
			id := candOf[rank]
			return u.raw[id*capA : id*capA+T]
		})
	}
	u.linkFrom(old)

	if cap(u.rawTotal) < T {
		grown := make([]relation.SumCount, T, capA)
		copy(grown, u.rawTotal)
		u.rawTotal = grown
	}
	u.rawTotal = u.rawTotal[:T]
	for row := fromRow; row < r.NumRows(); row++ {
		sc := &u.rawTotal[r.TimeIndex(row)]
		sc.Sum += r.MeasureValue(u.measure, row)
		sc.Count++
	}

	// A smoothed universe's views are the smoothed arena's; Append
	// re-smooths their tail and total afterwards.
	active := u.raw
	if u.smooth != nil {
		active = u.smooth.arena
	} else {
		u.total = u.rawTotal
	}
	for id, c := range u.cands {
		c.Series = active[id*capA : id*capA+T : (id+1)*capA]
	}
	st.ingested = r.NumRows()
	return nil
}

// resmoothTail extends the smoothing prefix sums past the first touched
// position p0 and recomputes the smoothed values a centered window at p0
// can see, returning the first recomputed position. Positions before it
// kept both their raw inputs and their (unclamped-at-the-tail) windows,
// so their smoothed values are untouched — and everything recomputed uses
// the same prefix-difference arithmetic as a from-scratch smooth.
func (u *Universe) resmoothTail(p0, newT, oldCands int) int {
	sm := u.smooth
	capA := u.arenaCap
	half := sm.window / 2
	lo0 := p0 - half
	if lo0 < 0 {
		lo0 = 0
	}

	if cap(sm.totPrefix) < newT+1 {
		grown := make([]relation.SumCount, len(sm.totPrefix), capA+1)
		copy(grown, sm.totPrefix)
		sm.totPrefix = grown
	}
	sm.totPrefix = sm.totPrefix[:newT+1]
	fillPrefix(sm.totPrefix, u.rawTotal, p0)
	if cap(sm.total) < newT {
		grown := make([]relation.SumCount, len(sm.total), capA)
		copy(grown, sm.total)
		sm.total = grown
	}
	sm.total = sm.total[:newT]
	smoothRange(sm.total, sm.totPrefix, newT, sm.window, lo0)

	for id := range u.cands {
		raw := u.raw[id*capA : id*capA+newT]
		pref := sm.prefix[id*(capA+1) : id*(capA+1)+newT+1]
		from := p0
		if id >= oldCands {
			// New candidates have no prefix history; build it from zero.
			from = 0
		}
		fillPrefix(pref, raw, from)
		smoothRange(sm.arena[id*capA:id*capA+newT], pref, newT, sm.window, lo0)
	}
	u.total = sm.total
	return lo0
}

// growArenaCap reallocates the arenas with a larger per-candidate stride,
// copying each candidate's live prefix ([0, liveT)). Geometric headroom
// makes this amortized O(1) per appended timestamp.
func (u *Universe) growArenaCap(liveT, newCap int) {
	oldCap := u.arenaCap
	slots := len(u.raw) / oldCap
	newRaw := make([]relation.SumCount, slots*newCap)
	for s := 0; s < slots; s++ {
		copy(newRaw[s*newCap:], u.raw[s*oldCap:s*oldCap+liveT])
	}
	u.raw = newRaw
	if sm := u.smooth; sm != nil {
		newArena := make([]relation.SumCount, slots*newCap)
		newPrefix := make([]relation.SumCount, slots*(newCap+1))
		for s := 0; s < slots; s++ {
			copy(newArena[s*newCap:], sm.arena[s*oldCap:s*oldCap+liveT])
			copy(newPrefix[s*(newCap+1):], sm.prefix[s*(oldCap+1):s*(oldCap+1)+liveT+1])
		}
		sm.arena = newArena
		sm.prefix = newPrefix
	}
	u.arenaCap = newCap
}

// ensureSlot grows the arenas' candidate capacity so candidate id has a
// zeroed series slot, again with geometric headroom.
func (u *Universe) ensureSlot(id int) {
	capA := u.arenaCap
	if (id+1)*capA <= len(u.raw) {
		return
	}
	slots := id + 1 + (id+1)/4 + 16
	newRaw := make([]relation.SumCount, slots*capA)
	copy(newRaw, u.raw)
	u.raw = newRaw
	if sm := u.smooth; sm != nil {
		newArena := make([]relation.SumCount, slots*capA)
		copy(newArena, sm.arena)
		sm.arena = newArena
		newPrefix := make([]relation.SumCount, slots*(capA+1))
		copy(newPrefix, sm.prefix)
		sm.prefix = newPrefix
	}
}
