package explain

import (
	"sort"

	"repro/internal/relation"
)

// This file makes relation taxonomies first-class in the candidate space.
// When at least two levels of a declared hierarchy appear among the
// explain-by attributes, enumeration switches to grouped roll-up form:
//
//   - subsets holding two levels of one hierarchy are never enumerated —
//     a (state, county) conjunction is redundant because the county
//     determines the state, and excluding it keeps the Cascading Analysts
//     non-overlap reasoning intact (siblings under one parent stay
//     disjoint, mixed-level conjunctions never exist);
//   - each candidate additionally registers as a drill-down child of its
//     taxonomy roll-up (the conjunction with one hierarchy predicate
//     replaced by its parent value at the next kept level), so the DP
//     drills "TX ↓ Houston" level by level through the same adjacency it
//     already walks for attribute extensions;
//   - the ancestor closure generalizes from sub-conjunctions to roll-up
//     generalizations: dropping or coarsening any predicate yields an
//     ancestor, which is exactly the transitive closure of the extended
//     edge set.
//
// With no hierarchies declared (or fewer than two levels kept), every
// structure here is empty and enumeration is bit-identical to the flat
// path.

// hierKept is one declared relation hierarchy restricted to the kept
// levels — those of its level dimensions that appear among the universe's
// explain-by attributes. Only hierarchies with ≥ 2 kept levels register.
type hierKept struct {
	h    *relation.Hierarchy
	kept []int   // relation level indexes kept, coarse → fine
	dims []int   // relation dim index per kept level
	pos  []int32 // explain-by position per kept level
}

// parentVal maps a kept-level-k dictionary id to its ancestor id at kept
// level k−1, composing the relation's adjacent-level parent maps across
// levels the explain-by set skips.
//
//tsexplain:hotpath
func (hk *hierKept) parentVal(k int, v uint32) uint32 {
	for l := hk.kept[k]; l > hk.kept[k-1]; l-- {
		v = hk.h.ParentID(l, v)
	}
	return v
}

// resolveHierarchies projects the relation's declared hierarchies onto the
// explain-by set, filling hier/hierOf/hierLevel. Hierarchies with fewer
// than two kept levels are ignored — one level behaves exactly like a flat
// attribute. Requires dimPos.
func (u *Universe) resolveHierarchies() {
	u.hierOf = make([]int32, len(u.explainBy))
	u.hierLevel = make([]int32, len(u.explainBy))
	for i := range u.hierOf {
		u.hierOf[i] = -1
		u.hierLevel[i] = -1
	}
	u.hier = nil
	for _, h := range u.rel.Hierarchies() {
		var hk hierKept
		hk.h = h
		for l := 0; l < h.NumLevels(); l++ {
			d := h.LevelDim(l)
			if p := u.dimPos[d]; p >= 0 {
				hk.kept = append(hk.kept, l)
				hk.dims = append(hk.dims, d)
				hk.pos = append(hk.pos, p)
			}
		}
		if len(hk.kept) < 2 {
			continue
		}
		hi := int32(len(u.hier))
		u.hier = append(u.hier, hk)
		for k, p := range hk.pos {
			u.hierOf[p] = hi
			u.hierLevel[p] = int32(k)
		}
	}
}

// HasTaxonomy reports whether at least one hierarchy has ≥ 2 kept levels,
// i.e. whether the candidate space is in grouped roll-up form.
func (u *Universe) HasTaxonomy() bool { return len(u.hier) > 0 }

// filterHierSubsets drops explain-by subsets holding more than one level
// of the same hierarchy. With no hierarchies it returns the input
// unchanged, keeping flat enumeration bit-identical.
func (u *Universe) filterHierSubsets(list [][]int) [][]int {
	out := list[:0]
	for _, subset := range list {
		if u.subsetGrouped(subset) {
			out = append(out, subset)
		}
	}
	return out
}

// subsetGrouped reports whether the subset holds at most one level of
// each hierarchy.
func (u *Universe) subsetGrouped(subset []int) bool {
	for i, d := range subset {
		hi := u.hierOf[u.dimPos[d]]
		if hi < 0 {
			continue
		}
		for _, d2 := range subset[i+1:] {
			if u.hierOf[u.dimPos[d2]] == hi {
				return false
			}
		}
	}
	return true
}

// addTaxEdges registers candidate c as a drill-down child of each of its
// taxonomy roll-ups: for every hierarchy predicate at kept level k ≥ 1,
// the conjunction with that predicate replaced by its level-(k−1) parent
// value. The roll-up's slice contains c's rows, so it always occurs and
// is always enumerated (replacing one hierarchy level by another keeps
// the subset grouped). Edges land in the same child lists the DP walks
// for attribute extensions, keyed by the child's own dimension — a node
// holding the level-(k−1) predicate has no extension children under the
// level-k dimension (that subset is not grouped), so each list stays
// single-mechanism and the lists still partition the parent's slice.
func (u *Universe) addTaxEdges(c *Candidate) {
	for _, p := range c.Conj {
		pos := u.dimPos[p.Dim]
		hi := u.hierOf[pos]
		if hi < 0 {
			continue
		}
		k := int(u.hierLevel[pos])
		if k == 0 {
			continue
		}
		hk := &u.hier[hi]
		parent := rollUpPred(c.Conj, p.Dim, hk.dims[k-1], hk.parentVal(k, p.Value))
		pid, ok := u.index.lookup(parent)
		if !ok {
			// Unreachable: the roll-up covers c's rows; guard anyway.
			continue
		}
		u.addChildFlat(pid+1, p.Dim, uint32(c.ID))
	}
}

// rollUpPred returns c with its predicate over fromDim replaced by
// (toDim = toVal), re-sorted into canonical dimension order.
func rollUpPred(c relation.Conjunction, fromDim, toDim int, toVal uint32) relation.Conjunction {
	out := make(relation.Conjunction, len(c))
	for i, p := range c {
		if p.Dim == fromDim {
			p = relation.Pred{Dim: toDim, Value: toVal}
		}
		out[i] = p
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Dim < out[j].Dim })
	return out
}

// appendGeneralizations is appendAncestors' taxonomy-aware form: the
// closure row holds every conjunction obtained by independently dropping,
// keeping, or rolling each predicate up through its coarser kept levels —
// exactly the transitive ancestors under extension plus taxonomy edges.
// Distinct option choices yield distinct conjunctions (every option has a
// distinct dimension), so no deduplication is needed.
func (u *Universe) appendGeneralizations(conj relation.Conjunction) {
	opts := make([][]relation.Pred, len(conj))
	for i, p := range conj {
		variants := []relation.Pred{p}
		pos := u.dimPos[p.Dim]
		if hi := u.hierOf[pos]; hi >= 0 {
			hk := &u.hier[hi]
			v := p.Value
			for k := int(u.hierLevel[pos]); k > 0; k-- {
				v = hk.parentVal(k, v)
				variants = append(variants, relation.Pred{Dim: hk.dims[k-1], Value: v})
			}
		}
		opts[i] = variants
	}
	cur := make(relation.Conjunction, 0, len(conj))
	var rec func(i int)
	rec = func(i int) {
		if i == len(conj) {
			if len(cur) == 0 {
				return
			}
			sub := append(relation.Conjunction(nil), cur...)
			sort.Slice(sub, func(a, b int) bool { return sub[a].Dim < sub[b].Dim })
			if aid, ok := u.index.lookup(sub); ok {
				u.ancIDs = append(u.ancIDs, uint32(aid))
			}
			return
		}
		rec(i + 1) // drop the predicate
		for _, v := range opts[i] {
			cur = append(cur, v)
			rec(i + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	u.ancOff = append(u.ancOff, uint32(len(u.ancIDs)))
}

// LevelPath returns candidate id's taxonomy path: the root-to-self value
// chain of its deepest hierarchy predicate ("TX", "Houston"), or nil when
// the candidate has no predicate over a kept hierarchy.
func (u *Universe) LevelPath(id int) []string {
	conj := u.cands[id].Conj
	bestK := int32(-1)
	var bestV uint32
	var bestH *hierKept
	for _, p := range conj {
		pos := u.dimPos[p.Dim]
		if pos < 0 {
			continue
		}
		if hi := u.hierOf[pos]; hi >= 0 && u.hierLevel[pos] > bestK {
			bestK = u.hierLevel[pos]
			bestV = p.Value
			bestH = &u.hier[hi]
		}
	}
	if bestK < 0 {
		return nil
	}
	path := make([]string, bestK+1)
	v := bestV
	for k := int(bestK); ; k-- {
		path[k] = u.rel.Dim(bestH.dims[k]).Value(v)
		if k == 0 {
			break
		}
		v = bestH.parentVal(k, v)
	}
	return path
}
