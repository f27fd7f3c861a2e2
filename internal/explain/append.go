package explain

import (
	"fmt"

	"repro/internal/relation"
)

// This file implements the universe's append path — the heart of the
// real-time extension's O(delta) ingestion. A universe built with
// Config.Streaming retains its group-by plans and lays every candidate's
// series out in a candidate-major arena with tail headroom; Append then
// consumes only the rows added to the relation since the last call:
//
//   - each plan discovers the delta's groups and extends its slot map
//     (pass 1 over the delta only);
//   - groups first occurring in the delta become candidates registered at
//     the tail of the candidate list, so every existing candidate ID —
//     and with it every cached per-segment result — stays valid with no
//     remapping;
//   - the delta's contributions are accumulated into the arena in row
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

	// Pass 1: every plan discovers the delta's groups.
	for _, p := range st.plans {
		p.AppendRows(fromRow)
	}

	// Register candidates first occurring in the delta at the tail,
	// subset-major and rank-ascending within each subset — the same
	// deterministic order construction uses, with IDs continuing after
	// every existing candidate.
	for si, p := range st.plans {
		subset := st.subsets[si]
		for g, ng := len(st.candOf[si]), p.NumGroups(); g < ng; g++ {
			ids := p.GroupIDsAt(g)
			conj := make(relation.Conjunction, len(subset))
			for i := range subset {
				conj[i] = relation.Pred{Dim: subset[i], Value: ids[i]}
			}
			id := len(u.cands)
			u.ensureSlot(id)
			u.cands = append(u.cands, &Candidate{ID: id, Conj: conj})
			u.index.insert(conj, id)
			st.candOf[si] = append(st.candOf[si], id)
		}
	}
	info.NewCandidates = len(u.cands) - info.OldCandidates

	// Adjacency and ancestor closure for the new candidates. All their
	// prefixes exist by now (any prefix of an occurring conjunction
	// occurs in the same rows), and appending in ascending ID order keeps
	// every child list sorted without re-sorting.
	if info.NewCandidates > 0 {
		u.childrenFlat = append(u.childrenFlat, make([][][]uint32, info.NewCandidates)...)
		for id := info.OldCandidates; id < len(u.cands); id++ {
			c := u.cands[id]
			for _, p := range c.Conj {
				parent := c.Conj.Without(p.Dim)
				parentID := 0 // root
				if len(parent) > 0 {
					pid, ok := u.index.lookup(parent)
					if !ok {
						// Unreachable by prefix closure; guard anyway.
						continue
					}
					parentID = pid + 1
				}
				u.addChildFlat(parentID, p.Dim, uint32(id))
			}
			// Taxonomy roll-up edges: the roll-up occurs in the same rows,
			// so it is either pre-existing or registered in this batch, and
			// ascending-ID appends keep its child lists sorted too.
			if len(u.hier) > 0 {
				u.addTaxEdges(c)
			}
			// New candidates register at the tail, so extending the CSR
			// ancestor closure in id order keeps the layout valid.
			u.appendAncestors(c.Conj)
		}
	}

	// Pass 2: accumulate only the delta into the arena.
	capA := u.arenaCap
	for si, p := range st.plans {
		candOf := st.candOf[si]
		p.FillRows(fromRow, func(rank int) []relation.SumCount {
			id := candOf[rank]
			return u.raw[id*capA : id*capA+newT]
		})
	}

	// Extend the raw overall series in row order (identical accumulation
	// order to a from-scratch AggregateSeries over the full relation).
	if cap(u.rawTotal) < newT {
		grown := make([]relation.SumCount, newT, capA)
		copy(grown, u.rawTotal)
		u.rawTotal = grown
	} else {
		u.rawTotal = u.rawTotal[:newT]
	}
	for row := fromRow; row < nRows; row++ {
		sc := &u.rawTotal[r.TimeIndex(row)]
		sc.Sum += r.MeasureValue(u.measure, row)
		sc.Count++
	}

	changed := p0
	if u.smooth != nil {
		changed = u.resmoothTail(p0, newT, info.OldCandidates)
	}
	info.ChangedFrom = changed

	// Re-point every candidate's series and the active total at the new
	// length.
	active := u.raw
	if u.smooth != nil {
		active = u.smooth.arena
		u.total = u.smooth.total
	} else {
		u.total = u.rawTotal
	}
	for id, c := range u.cands {
		c.Series = active[id*capA : id*capA+newT : (id+1)*capA]
	}
	st.ingested = nRows
	return info, nil
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
