package relation

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file derives categorical range-bin columns from numeric columns by
// equi-depth split refinement: the ideal equi-depth cut ranks i·n/bins are
// refined rightward past duplicate runs until each edge is a strict
// boundary (some value below it, some at or above it), so heavy duplicates
// collapse bins instead of producing empty or ill-defined ones. The edges
// are frozen at derivation time and persisted with the relation's binary
// snapshot, so appended rows bin identically and restores are
// bit-identical; values outside the observed range fall into the outer
// bins, and NaN gets its own bin.

// EquiDepthEdges returns strictly increasing, finite bin edges cutting
// vals into at most bins left-closed bins [e_{i-1}, e_i): the ideal
// equi-depth cut ranks over the sorted finite values, each refined to the
// next strict value boundary when duplicates straddle it. NaN values are
// ignored; ±Inf values sort into the outer bins and never become edges.
// Fewer than bins−1 edges come back when duplicates or infinities leave
// nothing to cut.
func EquiDepthEdges(vals []float64, bins int) []float64 {
	s := make([]float64, 0, len(vals))
	for _, v := range vals {
		if !math.IsNaN(v) {
			s = append(s, v)
		}
	}
	n := len(s)
	if n == 0 || bins < 2 {
		return nil
	}
	sort.Float64s(s)
	edges := make([]float64, 0, bins-1)
	lo := 0 // rank of the previous edge; the next one must cut strictly after it
	for i := 1; i < bins; i++ {
		r := i * n / bins
		if r <= lo {
			r = lo + 1
		}
		// Split refinement: a cut inside a duplicate run is no boundary at
		// all — slide right to the first index whose value strictly exceeds
		// its predecessor's.
		for r < n && s[r] == s[r-1] {
			r++
		}
		if r >= n || math.IsInf(s[r], 1) {
			break
		}
		edges = append(edges, s[r])
		lo = r
	}
	return edges
}

// AssignBin returns the bin index of v under the given edges: the number
// of edges ≤ v, so bin i spans [edges[i-1], edges[i]). NaN returns −1 (the
// dedicated NaN bin); −Inf lands in bin 0 and +Inf in the last bin.
//
//tsexplain:hotpath
func AssignBin(edges []float64, v float64) int {
	if math.IsNaN(v) {
		return -1
	}
	lo, hi := 0, len(edges)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if edges[mid] > v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// BinLabel renders the bin's dictionary value: "NaN" for the NaN bin,
// otherwise the half-open interval with the exact 'g'/-1 float rendering
// used everywhere else values round-trip.
func BinLabel(edges []float64, bin int) string {
	if bin < 0 {
		return "NaN"
	}
	lo, hi := "-inf", "+inf"
	if bin > 0 {
		lo = strconv.FormatFloat(edges[bin-1], 'g', -1, 64)
	}
	if bin < len(edges) {
		hi = strconv.FormatFloat(edges[bin], 'g', -1, 64)
	}
	return "[" + lo + "," + hi + ")"
}

// derivedCol kinds.
const (
	derivedPathLevel = uint8(1) // level column split from a path-delimited dim
	derivedRangeBin  = uint8(2) // bin column over a numeric measure
)

// derivedCol records how a derived dimension column is recomputed for
// appended base-width rows: path levels re-split their source dimension,
// range bins re-assign against the frozen edges.
type derivedCol struct {
	dim    int   // index of the derived DimColumn
	kind   uint8 // derivedPathLevel or derivedRangeBin
	source int   // dim index (path level) or measure index (range bin)
	level  int   // path level position
	nparts int   // path segment count the source must split into
	delim  string
	edges  []float64
}

// NumBaseDims returns the number of non-derived dimension columns — the
// width AppendRows accepts when derived columns should be recomputed
// engine-side.
func (r *Relation) NumBaseDims() int { return len(r.dims) - len(r.derived) }

// AddRangeBin derives a categorical column named as by equi-depth binning
// the named numeric measure into at most bins bins, appends it to the
// relation, and freezes its edges. Appended rows bin against the frozen
// edges, so out-of-range future values fall into the outer bins.
func (r *Relation) AddRangeBin(as, measure string, bins int) error {
	if as == "" {
		return fmt.Errorf("relation: range bin needs a column name")
	}
	if r.DimIndex(as) >= 0 || r.MeasureIndex(as) >= 0 || as == r.timeName {
		return fmt.Errorf("relation: range bin column %q collides with an existing column", as)
	}
	mi := r.MeasureIndex(measure)
	if mi < 0 {
		return fmt.Errorf("relation: unknown range bin source measure %q", measure)
	}
	if bins < 2 || bins > 4096 {
		return fmt.Errorf("relation: range bin count %d out of range (2..4096)", bins)
	}
	vals := r.measures[mi].vals
	edges := EquiDepthEdges(vals, bins)
	col := newDimColumn(as, r.numRows)
	for _, v := range vals {
		col.ids = append(col.ids, col.intern(BinLabel(edges, AssignBin(edges, v))))
	}
	r.dimByName[as] = len(r.dims)
	r.dims = append(r.dims, col)
	r.derived = append(r.derived, derivedCol{
		dim: len(r.dims) - 1, kind: derivedRangeBin, source: mi, edges: edges,
	})
	return nil
}

// RangeBinEdges returns the frozen edges of the named range-bin column.
func (r *Relation) RangeBinEdges(name string) ([]float64, bool) {
	d := r.DimIndex(name)
	if d < 0 {
		return nil, false
	}
	for i := range r.derived {
		if r.derived[i].dim == d && r.derived[i].kind == derivedRangeBin {
			return append([]float64(nil), r.derived[i].edges...), true
		}
	}
	return nil, false
}

// deriveRows recomputes the derived columns for base-width appended rows,
// returning full-width dimension rows in relation column order. It never
// mutates the caller's slices.
func (r *Relation) deriveRows(dims [][]string, measures [][]float64) ([][]string, error) {
	out := make([][]string, len(dims))
	for i := range dims {
		full := make([]string, len(r.dims))
		copy(full, dims[i])
		for _, dc := range r.derived {
			switch dc.kind {
			case derivedPathLevel:
				parts := strings.Split(dims[i][dc.source], dc.delim)
				if len(parts) != dc.nparts {
					return nil, fmt.Errorf("relation: appended row %d: path value %q has %d segment(s), want %d",
						i, dims[i][dc.source], len(parts), dc.nparts)
				}
				full[dc.dim] = parts[dc.level]
			case derivedRangeBin:
				full[dc.dim] = BinLabel(dc.edges, AssignBin(dc.edges, measures[i][dc.source]))
			}
		}
		out[i] = full
	}
	return out, nil
}
