package relation

import (
	"fmt"
	"strings"
)

// This file makes taxonomies first-class relation metadata. A Hierarchy
// declares that an ordered list of existing dimension columns refines
// coarse-to-fine (state → county, category → subcategory → leaf) and
// materializes, per adjacent level pair, the child-value → parent-value
// dictionary mapping. Declaration validates the single-parent invariant —
// every distinct value at level l occurs under exactly one value at level
// l−1 — which is what later lets the explain layer treat sibling slices
// as disjoint and a parent's slice as the union of its children's.
//
// Hierarchies either reference columns already present (DeclareHierarchy)
// or are derived from one path-delimited column ("electronics/audio/iem")
// whose segments become new level columns (DeriveHierarchyFromPath).

// Hierarchy is a validated taxonomy over dimension columns: dims[0] is the
// coarsest level, dims[len-1] the finest, and parents[l] maps each level-l
// dictionary id to its level-(l−1) parent dictionary id.
type Hierarchy struct {
	name    string
	dims    []int      // relation dim indexes, coarse → fine
	parents [][]uint32 // parents[l][childID] = parent dict id; parents[0] is nil
}

// Name returns the hierarchy's name.
func (h *Hierarchy) Name() string { return h.name }

// NumLevels returns the number of levels (≥ 2).
func (h *Hierarchy) NumLevels() int { return len(h.dims) }

// LevelDim returns the relation dimension index of level l (0 = coarsest).
func (h *Hierarchy) LevelDim(l int) int { return h.dims[l] }

// ParentID maps a level-l dictionary id to its parent's dictionary id at
// level l−1. l must be ≥ 1.
func (h *Hierarchy) ParentID(l int, id uint32) uint32 { return h.parents[l][id] }

// noParent marks a dictionary id whose parent has not been recorded yet
// (dictionaries never grow near 2^32 entries).
const noParent = ^uint32(0)

// NewHierarchy validates levels as a taxonomy over r without attaching it:
// every level must name a distinct existing dimension, and every distinct
// value at each level must occur under exactly one value of the level
// above it across all rows. The returned Hierarchy shares r's dictionaries
// but is not registered on r — use DeclareHierarchy for that.
func NewHierarchy(r *Relation, name string, levels []string) (*Hierarchy, error) {
	if name == "" {
		return nil, fmt.Errorf("relation: hierarchy needs a name")
	}
	if len(levels) < 2 {
		return nil, fmt.Errorf("relation: hierarchy %q needs at least 2 levels, got %d", name, len(levels))
	}
	h := &Hierarchy{name: name, parents: make([][]uint32, len(levels))}
	seen := make(map[int]bool, len(levels))
	for _, lv := range levels {
		d := r.DimIndex(lv)
		if d < 0 {
			return nil, fmt.Errorf("relation: hierarchy %q level %q is not a dimension", name, lv)
		}
		if seen[d] {
			return nil, fmt.Errorf("relation: hierarchy %q repeats level %q", name, lv)
		}
		seen[d] = true
		h.dims = append(h.dims, d)
	}
	for l := 1; l < len(h.dims); l++ {
		child, parent := r.dims[h.dims[l]], r.dims[h.dims[l-1]]
		pm := make([]uint32, len(child.dict))
		for i := range pm {
			pm[i] = noParent
		}
		for row := 0; row < r.numRows; row++ {
			c, p := child.ids[row], parent.ids[row]
			if pm[c] == noParent {
				pm[c] = p
			} else if pm[c] != p {
				return nil, fmt.Errorf("relation: hierarchy %q: value %q of level %q occurs under both %q and %q of level %q",
					name, child.dict[c], child.name, parent.dict[pm[c]], parent.dict[p], parent.name)
			}
		}
		h.parents[l] = pm
	}
	return h, nil
}

// DeclareHierarchy validates levels (see NewHierarchy) and registers the
// hierarchy on the relation, so it is carried by snapshots and picked up
// by every universe built over r. A dimension may belong to at most one
// hierarchy.
func (r *Relation) DeclareHierarchy(name string, levels []string) error {
	h, err := NewHierarchy(r, name, levels)
	if err != nil {
		return err
	}
	return r.attachHierarchy(h)
}

// attachHierarchy registers a validated hierarchy, rejecting name and
// dimension overlap with already-declared ones.
func (r *Relation) attachHierarchy(h *Hierarchy) error {
	for _, prev := range r.hiers {
		if prev.name == h.name {
			return fmt.Errorf("relation: hierarchy %q already declared", h.name)
		}
		for _, d := range prev.dims {
			for _, nd := range h.dims {
				if d == nd {
					return fmt.Errorf("relation: dimension %q is in hierarchies %q and %q",
						r.dims[d].name, prev.name, h.name)
				}
			}
		}
	}
	r.hiers = append(r.hiers, h)
	return nil
}

// Hierarchies returns the declared hierarchies (shared, do not mutate).
func (r *Relation) Hierarchies() []*Hierarchy { return r.hiers }

// HierarchyNamed returns the declared hierarchy with the given name.
func (r *Relation) HierarchyNamed(name string) *Hierarchy {
	for _, h := range r.hiers {
		if h.name == name {
			return h
		}
	}
	return nil
}

// DeriveHierarchyFromPath splits a path-delimited dimension column
// ("electronics/audio/iem") into len(levels) new level columns named by
// levels, appends them to the relation, and declares the hierarchy over
// them. Every value of srcDim must split into exactly len(levels)
// non-empty segments. Level values are the raw segments, so they must be
// globally unique across parents for the single-parent validation to pass
// (qualify them in the source data when they are not). On error the
// relation is unchanged.
func (r *Relation) DeriveHierarchyFromPath(name, srcDim, delim string, levels []string) error {
	src := r.DimIndex(srcDim)
	if src < 0 {
		return fmt.Errorf("relation: unknown path column %q", srcDim)
	}
	if delim == "" {
		return fmt.Errorf("relation: hierarchy %q needs a non-empty path delimiter", name)
	}
	if len(levels) < 2 {
		return fmt.Errorf("relation: hierarchy %q needs at least 2 levels, got %d", name, len(levels))
	}
	for _, lv := range levels {
		if lv == "" {
			return fmt.Errorf("relation: hierarchy %q has an empty level name", name)
		}
		if lv == srcDim {
			return fmt.Errorf("relation: hierarchy %q level %q is its own path column", name, lv)
		}
		if r.DimIndex(lv) >= 0 || r.MeasureIndex(lv) >= 0 || lv == r.timeName {
			return fmt.Errorf("relation: hierarchy %q level %q collides with an existing column", name, lv)
		}
	}
	// Split once per distinct source value, not per row.
	srcCol := r.dims[src]
	parts := make([][]string, len(srcCol.dict))
	for i, v := range srcCol.dict {
		p := strings.Split(v, delim)
		if len(p) != len(levels) {
			return fmt.Errorf("relation: path value %q has %d segment(s), hierarchy %q wants %d",
				v, len(p), name, len(levels))
		}
		for _, seg := range p {
			if seg == "" {
				return fmt.Errorf("relation: path value %q has an empty segment", v)
			}
		}
		parts[i] = p
	}
	// Materialize the level columns (first-appearance dictionary order,
	// like every other construction path) without touching r yet.
	cols := make([]*DimColumn, len(levels))
	for l := range levels {
		col := newDimColumn(levels[l], r.numRows)
		for _, src := range srcCol.ids {
			col.ids = append(col.ids, col.intern(parts[src][l]))
		}
		cols[l] = col
	}
	// Validate the taxonomy on the per-value split table before attaching
	// anything: same single-parent check NewHierarchy runs on rows, but
	// over distinct source values.
	h := &Hierarchy{name: name, parents: make([][]uint32, len(levels))}
	for l := 1; l < len(levels); l++ {
		pm := make([]uint32, len(cols[l].dict))
		for i := range pm {
			pm[i] = noParent
		}
		for _, p := range parts {
			c := cols[l].index[p[l]]
			pid := cols[l-1].index[p[l-1]]
			if pm[c] == noParent {
				pm[c] = pid
			} else if pm[c] != pid {
				return fmt.Errorf("relation: hierarchy %q: segment %q of level %q occurs under both %q and %q",
					name, p[l], levels[l], cols[l-1].dict[pm[c]], p[l-1])
			}
		}
		h.parents[l] = pm
	}
	// Attach: columns, derivation records, hierarchy — all or nothing.
	firstDim := len(r.dims)
	for l, col := range cols {
		h.dims = append(h.dims, firstDim+l)
		r.dimByName[col.name] = firstDim + l
		r.dims = append(r.dims, col)
		r.derived = append(r.derived, derivedCol{
			dim: firstDim + l, kind: derivedPathLevel, source: src,
			level: l, nparts: len(levels), delim: delim,
		})
	}
	if err := r.attachHierarchy(h); err != nil {
		// Roll the columns back; the relation must stay unchanged.
		for _, col := range cols {
			delete(r.dimByName, col.name)
		}
		r.dims = r.dims[:firstDim]
		r.derived = r.derived[:len(r.derived)-len(cols)]
		return err
	}
	return nil
}

// growHierarchyParents extends every hierarchy's parent maps over
// dictionary entries introduced since the given row watermark. Callers
// must have pre-validated consistency (see validateHierarchyRows); this
// only records first-seen parents.
func (r *Relation) growHierarchyParents(fromRow int) {
	for _, h := range r.hiers {
		for l := 1; l < len(h.dims); l++ {
			child, parent := r.dims[h.dims[l]], r.dims[h.dims[l-1]]
			pm := h.parents[l]
			for len(pm) < len(child.dict) {
				pm = append(pm, noParent)
			}
			for row := fromRow; row < r.numRows; row++ {
				c := child.ids[row]
				if pm[c] == noParent {
					pm[c] = parent.ids[row]
				}
			}
			h.parents[l] = pm
		}
	}
}

// validateHierarchyRows checks that full-width appended dimension rows
// respect every declared hierarchy before any mutation: a child value
// already in the dictionary must keep its recorded parent, and a value
// seen multiple times within the batch must be consistent across the
// batch.
func (r *Relation) validateHierarchyRows(dims [][]string) error {
	for _, h := range r.hiers {
		for l := 1; l < len(h.dims); l++ {
			child, parent := r.dims[h.dims[l]], r.dims[h.dims[l-1]]
			var staged map[string]string
			for i := range dims {
				cv, pv := dims[i][h.dims[l]], dims[i][h.dims[l-1]]
				if cid, ok := child.index[cv]; ok {
					rec := h.parents[l][cid]
					if rec != noParent && parent.dict[rec] != pv {
						return fmt.Errorf("relation: appended row %d: hierarchy %q value %q of level %q is recorded under %q, not %q",
							i, h.name, cv, child.name, parent.dict[rec], pv)
					}
					continue
				}
				if staged == nil {
					staged = make(map[string]string)
				}
				if prev, ok := staged[cv]; ok {
					if prev != pv {
						return fmt.Errorf("relation: appended rows: hierarchy %q value %q of level %q occurs under both %q and %q",
							h.name, cv, child.name, prev, pv)
					}
				} else {
					staged[cv] = pv
				}
			}
		}
	}
	return nil
}
