// Package relation implements the in-memory columnar relation that
// TSExplain aggregates and explains.
//
// A Relation models the result of loading one table: a designated time
// dimension (an ordinal attribute such as a date), any number of
// categorical dimension attributes (dictionary-encoded), and any number of
// numeric measure attributes. The paper's engine assumes such a relation
// (or the equivalent data cube) is maintained in memory by the host
// analytics tool; this package is that substrate.
//
// The zero value of Relation is not useful; construct one with a Builder
// or by reading a CSV file with ReadCSV.
package relation

import (
	"fmt"
	"sort"
)

// DimColumn is a dictionary-encoded categorical column. Row values are
// stored as indexes into the column's dictionary so predicates compare
// integers rather than strings.
type DimColumn struct {
	name  string
	ids   []uint32          // per-row dictionary index
	dict  []string          // dictionary: id -> value
	index map[string]uint32 // reverse dictionary: value -> id
}

// Name returns the attribute name of the column.
func (c *DimColumn) Name() string { return c.name }

// Cardinality returns the number of distinct values in the column.
func (c *DimColumn) Cardinality() int { return len(c.dict) }

// Value returns the string value of the given dictionary id.
func (c *DimColumn) Value(id uint32) string { return c.dict[id] }

// ID returns the dictionary id for the given value. ok is false when the
// value never occurs in the column.
func (c *DimColumn) ID(value string) (id uint32, ok bool) {
	id, ok = c.index[value]
	return id, ok
}

// newDimColumn returns an empty column with n rows of id capacity.
func newDimColumn(name string, n int) *DimColumn {
	return &DimColumn{name: name, ids: make([]uint32, 0, n), index: make(map[string]uint32)}
}

// intern returns the dictionary id of v, adding v as the next id when the
// column has not seen it: dictionaries stay in first-appearance order.
func (c *DimColumn) intern(v string) uint32 {
	if id, ok := c.index[v]; ok {
		return id
	}
	id := uint32(len(c.dict))
	c.dict = append(c.dict, v)
	c.index[v] = id
	return id
}

// internBytes is intern for a value that lives in a reused read buffer.
// The lookup does not allocate; only a value new to the column is copied.
func (c *DimColumn) internBytes(v []byte) uint32 {
	if id, ok := c.index[string(v)]; ok {
		return id
	}
	return c.intern(string(v))
}

// MeasureColumn is a numeric column.
type MeasureColumn struct {
	name string
	vals []float64
}

// Name returns the attribute name of the column.
func (c *MeasureColumn) Name() string { return c.name }

// Relation is an in-memory table with one time dimension, zero or more
// categorical dimensions, and zero or more measures. A finished Relation
// never rewrites history, but it may grow at the tail: AppendRows ingests
// rows at (or after) the current last timestamp, which is how the
// real-time extension streams data in without rebuilding the table.
type Relation struct {
	name string

	numRows int

	timeName   string
	timeIdx    []int32          // per-row index into timeLabels
	timeLabels []string         // distinct time values, in series order
	timePos    map[string]int32 // reverse index: label -> series position

	dims      []*DimColumn
	dimByName map[string]int

	measures      []*MeasureColumn
	measureByName map[string]int

	// hiers are the declared taxonomies over dimension columns; derived
	// records how trailing derived dimension columns (path levels, range
	// bins) are recomputed for appended base-width rows. Both are set at
	// load time, before the relation is shared.
	hiers   []*Hierarchy
	derived []derivedCol
}

// Name returns the relation's name (informational only).
func (r *Relation) Name() string { return r.name }

// NumRows returns the number of rows in the relation.
func (r *Relation) NumRows() int { return r.numRows }

// TimeName returns the name of the time dimension.
func (r *Relation) TimeName() string { return r.timeName }

// NumTimestamps returns the number of distinct time values, i.e. the length
// of any aggregated time series derived from this relation.
func (r *Relation) NumTimestamps() int { return len(r.timeLabels) }

// TimeLabel returns the i-th time value in series order.
func (r *Relation) TimeLabel(i int) string { return r.timeLabels[i] }

// TimeLabels returns all distinct time values in series order.
func (r *Relation) TimeLabels() []string {
	out := make([]string, len(r.timeLabels))
	copy(out, r.timeLabels)
	return out
}

// TimeIndex returns the time position (0-based) of the given row.
func (r *Relation) TimeIndex(row int) int { return int(r.timeIdx[row]) }

// NumDims returns the number of categorical dimension attributes.
func (r *Relation) NumDims() int { return len(r.dims) }

// Dim returns the i-th dimension column.
func (r *Relation) Dim(i int) *DimColumn { return r.dims[i] }

// DimIndex returns the position of the named dimension attribute, or -1.
func (r *Relation) DimIndex(name string) int {
	if i, ok := r.dimByName[name]; ok {
		return i
	}
	return -1
}

// DimNames returns the names of all dimension attributes.
func (r *Relation) DimNames() []string {
	out := make([]string, len(r.dims))
	for i, d := range r.dims {
		out[i] = d.name
	}
	return out
}

// DimValue returns the string value of dimension dim at the given row.
func (r *Relation) DimValue(dim, row int) string {
	d := r.dims[dim]
	return d.dict[d.ids[row]]
}

// NumMeasures returns the number of measure attributes.
func (r *Relation) NumMeasures() int { return len(r.measures) }

// Measure returns the i-th measure column.
func (r *Relation) Measure(i int) *MeasureColumn { return r.measures[i] }

// MeasureIndex returns the position of the named measure attribute, or -1.
func (r *Relation) MeasureIndex(name string) int {
	if i, ok := r.measureByName[name]; ok {
		return i
	}
	return -1
}

// MeasureNames returns the names of all measure attributes.
func (r *Relation) MeasureNames() []string {
	out := make([]string, len(r.measures))
	for i, m := range r.measures {
		out[i] = m.name
	}
	return out
}

// MeasureValue returns the value of measure m at the given row.
func (r *Relation) MeasureValue(m, row int) float64 { return r.measures[m].vals[row] }

// Builder incrementally assembles a Relation. Append rows with Append and
// call Finish once; the Builder must not be reused afterwards.
//
// Rows are dictionary-encoded as they arrive. Time labels are interned in
// first-appearance order too, and Finish remaps the per-row ids to series
// order in one pass once every label is known.
type Builder struct {
	name         string
	timeName     string
	measureNames []string

	times    *DimColumn // time-label dictionary; its ids stay unused
	timeIdx  []int32    // per-row time-label id, first-appearance order until Finish
	dims     []*DimColumn
	measures [][]float64

	timeOrder []string // optional explicit ordering of time labels
	finished  bool
}

// NewBuilder returns a Builder for a relation with the given time
// dimension, categorical dimensions, and measures.
func NewBuilder(name, timeName string, dimNames, measureNames []string) *Builder {
	b := &Builder{
		name:         name,
		timeName:     timeName,
		measureNames: append([]string(nil), measureNames...),
		times:        newDimColumn(timeName, 0),
	}
	b.dims = make([]*DimColumn, len(dimNames))
	for i, d := range dimNames {
		b.dims[i] = newDimColumn(d, 0)
	}
	b.measures = make([][]float64, len(measureNames))
	return b
}

// SetTimeOrder fixes the series order of time labels explicitly. Labels
// appended later that are missing from the ordering cause Finish to fail.
// Without an explicit order, labels are sorted lexicographically, which is
// correct for ISO dates and zero-padded numerals.
func (b *Builder) SetTimeOrder(labels []string) {
	b.timeOrder = append([]string(nil), labels...)
}

// Append adds one row. dims and measures must match the lengths declared
// in NewBuilder.
func (b *Builder) Append(timeVal string, dims []string, measures []float64) error {
	if b.finished {
		// The relation Finish returned owns the columns now.
		return fmt.Errorf("relation: Builder.Append after Finish")
	}
	if len(dims) != len(b.dims) {
		return fmt.Errorf("relation: row has %d dimension values, want %d", len(dims), len(b.dims))
	}
	if len(measures) != len(b.measures) {
		return fmt.Errorf("relation: row has %d measure values, want %d", len(measures), len(b.measures))
	}
	b.timeIdx = append(b.timeIdx, int32(b.times.intern(timeVal)))
	for i, v := range dims {
		col := b.dims[i]
		col.ids = append(col.ids, col.intern(v))
	}
	for i, v := range measures {
		b.measures[i] = append(b.measures[i], v)
	}
	return nil
}

// appendRecord is Append for one parsed CSV record whose fields alias the
// reader's buffer: timeAt and dimAt index rec, meas holds the parsed
// measures. Arity is the reader's to check.
func (b *Builder) appendRecord(rec [][]byte, timeAt int, dimAt []int, meas []float64) {
	b.timeIdx = append(b.timeIdx, int32(b.times.internBytes(rec[timeAt])))
	for i, at := range dimAt {
		col := b.dims[i]
		col.ids = append(col.ids, col.internBytes(rec[at]))
	}
	for i, v := range meas {
		b.measures[i] = append(b.measures[i], v)
	}
}

// Finish builds the Relation: it resolves the series order of the time
// labels and remaps every row's time id to it.
func (b *Builder) Finish() (*Relation, error) {
	if b.finished {
		return nil, fmt.Errorf("relation: Builder.Finish called twice")
	}
	b.finished = true

	r := &Relation{
		name:          b.name,
		numRows:       len(b.timeIdx),
		timeName:      b.timeName,
		dimByName:     make(map[string]int, len(b.dims)),
		measureByName: make(map[string]int, len(b.measureNames)),
	}

	// remap[id] is the series position of the label with first-appearance
	// id; unknown labels are reported in first-appearance order, which is
	// the order of the rows that carry them.
	labels := b.times.dict
	remap := make([]int32, len(labels))
	if b.timeOrder != nil {
		pos := make(map[string]int32, len(b.timeOrder))
		for i, l := range b.timeOrder {
			if _, dup := pos[l]; dup {
				return nil, fmt.Errorf("relation: duplicate time label %q in explicit order", l)
			}
			pos[l] = int32(i)
		}
		for id, l := range labels {
			p, ok := pos[l]
			if !ok {
				return nil, fmt.Errorf("relation: time value %q not in explicit time order", l)
			}
			remap[id] = p
		}
		r.timeLabels, r.timePos = b.timeOrder, pos
	} else {
		sort.Strings(labels)
		pos := make(map[string]int32, len(labels))
		for i, l := range labels {
			pos[l] = int32(i)
			remap[b.times.index[l]] = int32(i)
		}
		r.timeLabels, r.timePos = labels, pos
	}
	for i, id := range b.timeIdx {
		b.timeIdx[i] = remap[id]
	}
	r.timeIdx = b.timeIdx

	for di, col := range b.dims {
		if _, dup := r.dimByName[col.name]; dup {
			return nil, fmt.Errorf("relation: duplicate dimension name %q", col.name)
		}
		r.dimByName[col.name] = di
		r.dims = append(r.dims, col)
	}

	// Measures are stored as-is.
	for mi, name := range b.measureNames {
		if _, dup := r.measureByName[name]; dup {
			return nil, fmt.Errorf("relation: duplicate measure name %q", name)
		}
		r.measureByName[name] = mi
		r.measures = append(r.measures, &MeasureColumn{name: name, vals: b.measures[mi]})
	}
	return r, nil
}

// AppendRows extends the relation in place with rows at the tail of the
// series: every row's time label must resolve to the current last
// timestamp (late records revising the most recent point) or to a new
// label, which is appended to the series in first-appearance order. Rows
// are row-major: dims[i] and measures[i] belong to row i and must match
// the relation's dimension and measure counts. Dictionaries grow as new
// categorical values appear.
//
// Validation runs before any mutation, so a failed call leaves the
// relation unchanged. Earlier timestamps are immutable; a row that
// resolves before the last existing label is rejected, which is what lets
// the incremental engine trust that appended data never rewrites history.
// Rows may carry either the full dimension width or, when the relation has
// derived columns (hierarchy levels split from a path, range bins), just
// the base width — the derived values are then recomputed engine-side, so
// external writers never have to know about derived columns. Appended rows
// must also respect every declared hierarchy: a known child value cannot
// move to a different parent.
func (r *Relation) AppendRows(timeVals []string, dims [][]string, measures [][]float64) error {
	if len(dims) != len(timeVals) || len(measures) != len(timeVals) {
		return fmt.Errorf("relation: AppendRows got %d time values, %d dim rows, %d measure rows",
			len(timeVals), len(dims), len(measures))
	}
	wantDims := len(r.dims)
	if base := r.NumBaseDims(); base < wantDims && len(dims) > 0 && len(dims[0]) == base {
		wantDims = base
	}
	for i := range timeVals {
		if len(dims[i]) != wantDims {
			return fmt.Errorf("relation: row %d has %d dimension values, want %d", i, len(dims[i]), wantDims)
		}
		if len(measures[i]) != len(r.measures) {
			return fmt.Errorf("relation: row %d has %d measure values, want %d", i, len(measures[i]), len(r.measures))
		}
	}
	if wantDims < len(r.dims) {
		full, err := r.deriveRows(dims, measures)
		if err != nil {
			return err
		}
		dims = full
	}
	if len(r.hiers) > 0 {
		if err := r.validateHierarchyRows(dims); err != nil {
			return err
		}
	}
	// Resolve time labels without mutating: existing labels must be the
	// current last one; unseen labels are staged for appending.
	minPos := int32(len(r.timeLabels)) - 1
	if minPos < 0 {
		minPos = 0
	}
	staged := make(map[string]int32)
	var newLabels []string
	for i, l := range timeVals {
		pos, ok := r.timePos[l]
		if !ok {
			pos, ok = staged[l]
			if !ok {
				pos = int32(len(r.timeLabels) + len(newLabels))
				staged[l] = pos
				newLabels = append(newLabels, l)
			}
		}
		if pos < minPos {
			return fmt.Errorf("relation: row %d appends at timestamp %q (position %d), before the last existing timestamp %q",
				i, l, pos, r.timeLabels[len(r.timeLabels)-1])
		}
	}

	// Mutate: labels, per-row time indexes, dictionaries, measures.
	fromRow := r.numRows
	for _, l := range newLabels {
		r.timePos[l] = int32(len(r.timeLabels))
		r.timeLabels = append(r.timeLabels, l)
	}
	for i := range timeVals {
		pos := r.timePos[timeVals[i]]
		r.timeIdx = append(r.timeIdx, pos)
		for di, col := range r.dims {
			col.ids = append(col.ids, col.intern(dims[i][di]))
		}
		for mi, col := range r.measures {
			col.vals = append(col.vals, measures[i][mi])
		}
	}
	r.numRows += len(timeVals)
	if len(r.hiers) > 0 {
		r.growHierarchyParents(fromRow)
	}
	return nil
}

// RowsByTime indexes the relation's rows by series position: element t
// lists the row indexes whose time label is the t-th timestamp, in row
// order. Streaming drivers use it to replay a relation in time order.
func (r *Relation) RowsByTime() [][]int {
	out := make([][]int, r.NumTimestamps())
	for row := 0; row < r.numRows; row++ {
		t := r.timeIdx[row]
		out[t] = append(out[t], row)
	}
	return out
}

// RowBatch decodes the rows at time positions [from, to) into the
// row-major shape AppendRows consumes, using the index from RowsByTime.
// It is the replay primitive: feed a relation's tail (or a whole delta
// relation) into another relation's append path.
func (r *Relation) RowBatch(byTime [][]int, from, to int) (timeVals []string, dims [][]string, measures [][]float64) {
	for t := from; t < to; t++ {
		label := r.timeLabels[t]
		for _, row := range byTime[t] {
			timeVals = append(timeVals, label)
			dv := make([]string, len(r.dims))
			for d := range dv {
				dv[d] = r.DimValue(d, row)
			}
			mv := make([]float64, len(r.measures))
			for m := range mv {
				mv[m] = r.MeasureValue(m, row)
			}
			dims = append(dims, dv)
			measures = append(measures, mv)
		}
	}
	return timeVals, dims, measures
}

// DerivedBytes coarsely estimates the heap held by state that exists only
// because taxonomies or derived columns were declared on this relation:
// hierarchy parent maps, the derived columns' per-row ids and
// dictionaries, and the frozen range-bin edges. Base columns are excluded
// — they are the cost of loading the CSV at all — so callers can charge
// the marginal footprint of hierarchical/range-binned datasets against a
// memory budget without double-counting the base data per engine.
func (r *Relation) DerivedBytes() int64 {
	var b int64
	for _, h := range r.hiers {
		for _, p := range h.parents {
			b += 4 * int64(cap(p))
		}
	}
	for _, dc := range r.derived {
		col := r.dims[dc.dim]
		b += 4 * int64(cap(col.ids))
		for _, v := range col.dict {
			b += 16 + int64(len(v)) // string header + bytes
		}
		b += 48 * int64(len(col.index)) // map buckets + key strings, coarse
		b += 8 * int64(cap(dc.edges))
	}
	return b
}
