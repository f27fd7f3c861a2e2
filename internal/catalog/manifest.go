package catalog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"

	"repro/internal/relation"
)

// Manifest describes one catalog dataset: how its CSV maps onto a
// relation, which aggregated series to explain, and the per-dataset
// engine defaults. It is the JSON document uploaded next to the CSV and
// stored as manifest.json.
type Manifest struct {
	// Name is the dataset's canonical identifier: a lowercase path-safe
	// slug, unique within the catalog (and disjoint from the built-in
	// dataset names when served).
	Name string `json:"name"`
	// Aliases lists alternative request names resolving to this dataset.
	// Aliased requests share the canonical dataset's cache keys and pooled
	// engines — the generalization of the server's old hardcoded
	// "covid-total" → "covid" normalization.
	Aliases []string `json:"aliases,omitempty"`
	// TimeCol is the CSV header of the time dimension. Its values must
	// sort lexicographically in series order (ISO dates, zero-padded
	// numerals).
	TimeCol string `json:"timeCol"`
	// DimCols are the CSV headers of the categorical dimension columns.
	DimCols []string `json:"dimCols"`
	// MeasureCol is the CSV header of the numeric measure column.
	MeasureCol string `json:"measureCol"`
	// Agg is the aggregate function over MeasureCol: "SUM" (default),
	// "COUNT", or "AVG".
	Agg string `json:"agg,omitempty"`
	// ExplainBy lists the explain-by attributes; empty means all DimCols.
	ExplainBy []string `json:"explainBy,omitempty"`
	// MaxOrder is the explanation order threshold β̄ (default 3, capped at
	// len(ExplainBy)).
	MaxOrder int `json:"maxOrder,omitempty"`
	// SmoothWindow is the default moving-average window applied before
	// explaining; 0 disables.
	SmoothWindow int `json:"smoothWindow,omitempty"`
	// Approx holds the dataset's defaults for approximate-mode requests
	// (?mode=approx); nil applies the engine defaults.
	Approx *ApproxDefaults `json:"approx,omitempty"`
	// Hierarchies declares taxonomies over the dataset's dimensions, each
	// either tying existing dimCols together coarse→fine or deriving new
	// level columns from a path-delimited dimension. Declared hierarchies
	// persist in the dataset's snapshots and make the level columns valid
	// explainBy attributes.
	Hierarchies []HierarchySpec `json:"hierarchies,omitempty"`
	// RangeBins derives categorical bin columns from numeric CSV columns
	// by equi-depth binning; the resulting columns are valid explainBy
	// attributes. Create fits their edges over the uploaded rows and
	// records them in the stored manifest, so every later load bins
	// appended rows against the same edges.
	RangeBins []RangeBinSpec `json:"rangeBins,omitempty"`
}

// HierarchySpec declares one taxonomy. Either Levels names ≥ 2 existing
// dimCols (coarse → fine), or PathCol names a path-delimited dimCols
// entry ("electronics/audio/iem") whose segments become new columns named
// by Levels.
type HierarchySpec struct {
	// Name identifies the hierarchy within the dataset.
	Name string `json:"name"`
	// Levels lists the level column names, coarsest first. Without
	// PathCol they must be existing dimCols; with PathCol they are new
	// columns derived by splitting it.
	Levels []string `json:"levels"`
	// PathCol, when set, derives the levels by splitting this dimCols
	// entry on Delim. Every value must split into exactly len(Levels)
	// non-empty segments.
	PathCol string `json:"pathCol,omitempty"`
	// Delim is the path separator (default "/"); only valid with PathCol.
	Delim string `json:"delim,omitempty"`
}

// EffectiveDelim returns the path separator after defaults.
func (h *HierarchySpec) EffectiveDelim() string {
	if h.Delim == "" {
		return "/"
	}
	return h.Delim
}

// RangeBinSpec derives one categorical column by equi-depth binning a
// numeric CSV column.
type RangeBinSpec struct {
	// Column is the numeric CSV column to bin. It may be the measureCol
	// or any other numeric column; it cannot be the time column or a
	// dimension.
	Column string `json:"column"`
	// Bins is the maximum bin count (default 8, range 2..4096). Heavy
	// duplicates may collapse bins.
	Bins int `json:"bins,omitempty"`
	// As names the derived column (default Column + "_bin").
	As string `json:"as,omitempty"`
	// Edges are the bin edges Create fitted over the uploaded rows,
	// recorded in the stored manifest; an upload may not set them. They
	// are finite, strictly increasing and at most Bins−1 long, and an
	// empty list when the fit found nothing to cut. A manifest without
	// them fits the edges again over all rows on every load.
	Edges *[]float64 `json:"edges,omitempty"`
}

// EffectiveBins returns the bin count after defaults.
func (rb *RangeBinSpec) EffectiveBins() int {
	if rb.Bins == 0 {
		return 8
	}
	return rb.Bins
}

// EffectiveAs returns the derived column name after defaults.
func (rb *RangeBinSpec) EffectiveAs() string {
	if rb.As == "" {
		return rb.Column + "_bin"
	}
	return rb.As
}

// ApproxDefaults is a manifest's default configuration for the anytime
// approximate explanation path. A request's explicit epsilon parameter
// overrides Epsilon; MaxCandidates is always taken from here (or the
// engine default when 0).
type ApproxDefaults struct {
	// MaxCandidates caps the selectable candidate set (0: engine default
	// 4096).
	MaxCandidates int `json:"maxCandidates,omitempty"`
	// Epsilon is the default per-segment relative attribution-error
	// target (0: engine default 0.05).
	Epsilon float64 `json:"epsilon,omitempty"`
}

// nameRE is the shape of dataset names and aliases: a filesystem- and
// URL-safe slug. Keeping names this tight is what makes using them as
// directory names safe (no separators, no dots, no traversal).
var nameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9_-]{0,63}$`)

// ValidName reports whether s is an acceptable dataset name or alias.
func ValidName(s string) bool { return nameRE.MatchString(s) }

// ParseManifest decodes and validates a manifest document. Unknown JSON
// fields are rejected so a typoed field name ("measure" for "measureCol")
// fails the upload instead of silently applying a default, and so is
// anything but whitespace after the document.
func ParseManifest(data []byte) (Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return m, fmt.Errorf("catalog: parsing manifest: %w", err)
	}
	if err := dec.Decode(&json.RawMessage{}); err != io.EOF {
		return m, fmt.Errorf("catalog: parsing manifest: data after the document")
	}
	if err := m.Validate(); err != nil {
		return m, err
	}
	return m, nil
}

// Validate checks the manifest's internal consistency: name and alias
// shapes, non-empty column mapping, no duplicate or unknown explain-by
// attributes, a known aggregate, and sane engine defaults.
func (m *Manifest) Validate() error {
	if !ValidName(m.Name) {
		return fmt.Errorf("catalog: bad dataset name %q (want %s)", m.Name, nameRE)
	}
	seen := map[string]bool{m.Name: true}
	for _, a := range m.Aliases {
		if !ValidName(a) {
			return fmt.Errorf("catalog: bad alias %q (want %s)", a, nameRE)
		}
		if seen[a] {
			return fmt.Errorf("catalog: alias %q repeats the dataset name or another alias", a)
		}
		seen[a] = true
	}
	if m.TimeCol == "" {
		return fmt.Errorf("catalog: manifest needs a timeCol")
	}
	if len(m.DimCols) == 0 {
		return fmt.Errorf("catalog: manifest needs at least one dimCols entry")
	}
	cols := map[string]bool{m.TimeCol: true}
	for _, d := range m.DimCols {
		if d == "" {
			return fmt.Errorf("catalog: empty dimCols entry")
		}
		if cols[d] {
			return fmt.Errorf("catalog: column %q repeated in manifest", d)
		}
		cols[d] = true
	}
	if m.MeasureCol == "" {
		return fmt.Errorf("catalog: manifest needs a measureCol")
	}
	if cols[m.MeasureCol] {
		return fmt.Errorf("catalog: column %q repeated in manifest", m.MeasureCol)
	}
	if _, err := m.AggFunc(); err != nil {
		return err
	}
	dimSet := make(map[string]bool, len(m.DimCols))
	for _, d := range m.DimCols {
		dimSet[d] = true
	}
	derived, err := m.validateDerived(cols, dimSet)
	if err != nil {
		return err
	}
	ebSeen := make(map[string]bool, len(m.ExplainBy))
	for _, e := range m.ExplainBy {
		if !dimSet[e] && !derived[e] {
			return fmt.Errorf("catalog: explainBy attribute %q is not a dimCols entry or derived column", e)
		}
		if ebSeen[e] {
			return fmt.Errorf("catalog: explainBy attribute %q repeated", e)
		}
		ebSeen[e] = true
	}
	if m.MaxOrder < 0 || m.MaxOrder > 8 {
		return fmt.Errorf("catalog: maxOrder %d out of range (0..8)", m.MaxOrder)
	}
	if m.SmoothWindow < 0 || m.SmoothWindow > 365 {
		return fmt.Errorf("catalog: smoothWindow %d out of range (0..365)", m.SmoothWindow)
	}
	if m.Approx != nil {
		if m.Approx.MaxCandidates < 0 || m.Approx.MaxCandidates > 1<<20 {
			return fmt.Errorf("catalog: approx.maxCandidates %d out of range (0..%d)", m.Approx.MaxCandidates, 1<<20)
		}
		if m.Approx.Epsilon < 0 || m.Approx.Epsilon > 0.5 {
			return fmt.Errorf("catalog: approx.epsilon %g out of range (0..0.5]", m.Approx.Epsilon)
		}
	}
	return nil
}

// validateDerived checks the hierarchies and rangeBins sections and
// returns the set of derived column names they introduce. cols holds the
// time and dimension columns, dimSet the dimensions alone.
func (m *Manifest) validateDerived(cols, dimSet map[string]bool) (map[string]bool, error) {
	derived := make(map[string]bool)
	taken := func(name string) bool {
		return cols[name] || name == m.MeasureCol || derived[name]
	}
	hierNames := make(map[string]bool, len(m.Hierarchies))
	dimInHier := make(map[string]string)
	for i := range m.Hierarchies {
		h := &m.Hierarchies[i]
		if h.Name == "" {
			return nil, fmt.Errorf("catalog: hierarchies entry %d needs a name", i)
		}
		if hierNames[h.Name] {
			return nil, fmt.Errorf("catalog: hierarchy %q declared twice", h.Name)
		}
		hierNames[h.Name] = true
		if len(h.Levels) < 2 {
			return nil, fmt.Errorf("catalog: hierarchy %q needs at least 2 levels, got %d", h.Name, len(h.Levels))
		}
		lvlSeen := make(map[string]bool, len(h.Levels))
		for _, lv := range h.Levels {
			if lv == "" {
				return nil, fmt.Errorf("catalog: hierarchy %q has an empty level name", h.Name)
			}
			if lvlSeen[lv] {
				return nil, fmt.Errorf("catalog: hierarchy %q repeats level %q", h.Name, lv)
			}
			lvlSeen[lv] = true
		}
		if h.PathCol != "" {
			if !dimSet[h.PathCol] {
				return nil, fmt.Errorf("catalog: hierarchy %q pathCol %q is not a dimCols entry", h.Name, h.PathCol)
			}
			if lvlSeen[h.PathCol] {
				return nil, fmt.Errorf("catalog: hierarchy %q pathCol %q is also one of its levels — the hierarchy would derive from itself", h.Name, h.PathCol)
			}
			for _, lv := range h.Levels {
				if taken(lv) {
					return nil, fmt.Errorf("catalog: hierarchy %q level %q collides with an existing column", h.Name, lv)
				}
				derived[lv] = true
			}
		} else {
			if h.Delim != "" {
				return nil, fmt.Errorf("catalog: hierarchy %q sets delim without pathCol", h.Name)
			}
			for _, lv := range h.Levels {
				if !dimSet[lv] {
					return nil, fmt.Errorf("catalog: hierarchy %q level %q is not a dimCols entry", h.Name, lv)
				}
				if prev, ok := dimInHier[lv]; ok {
					return nil, fmt.Errorf("catalog: dimension %q is in hierarchies %q and %q", lv, prev, h.Name)
				}
				dimInHier[lv] = h.Name
			}
		}
	}
	for i := range m.RangeBins {
		rb := &m.RangeBins[i]
		if rb.Column == "" {
			return nil, fmt.Errorf("catalog: rangeBins entry %d needs a column", i)
		}
		if rb.Column == m.TimeCol || dimSet[rb.Column] {
			return nil, fmt.Errorf("catalog: rangeBins column %q must be a numeric column, not the time or a dimension column", rb.Column)
		}
		if b := rb.EffectiveBins(); b < 2 || b > 4096 {
			return nil, fmt.Errorf("catalog: rangeBins column %q bins %d out of range (2..4096)", rb.Column, b)
		}
		as := rb.EffectiveAs()
		if taken(as) || as == rb.Column {
			return nil, fmt.Errorf("catalog: rangeBins derived column %q collides with an existing column", as)
		}
		var edges []float64
		if rb.Edges != nil {
			edges = *rb.Edges
		}
		if len(edges) > rb.EffectiveBins()-1 {
			return nil, fmt.Errorf("catalog: rangeBins column %q has %d edges for %d bins", rb.Column, len(edges), rb.EffectiveBins())
		}
		for j, e := range edges {
			if math.IsNaN(e) || math.IsInf(e, 0) || (j > 0 && !(e > edges[j-1])) {
				return nil, fmt.Errorf("catalog: rangeBins column %q edges must be finite and strictly increasing", rb.Column)
			}
		}
		derived[as] = true
	}
	return derived, nil
}

// Spec returns the CSV column mapping the manifest describes. Range-bin
// source columns load as additional measures so the bins can be derived
// (and appended rows re-binned) engine-side.
func (m *Manifest) Spec() relation.CSVSpec {
	meas := []string{m.MeasureCol}
	for i := range m.RangeBins {
		src := m.RangeBins[i].Column
		dup := false
		for _, prev := range meas {
			if prev == src {
				dup = true
				break
			}
		}
		if !dup {
			meas = append(meas, src)
		}
	}
	return relation.CSVSpec{
		Name:     m.Name,
		TimeCol:  m.TimeCol,
		DimCols:  m.DimCols,
		MeasCols: meas,
	}
}

// ReadRelation parses CSV data laid out as the manifest describes and
// applies its derived columns: what LoadRelation does with a dataset's
// data.csv, and what an offline run over a catalog's manifest.json and
// data.csv does.
func (m *Manifest) ReadRelation(src io.Reader) (*relation.Relation, error) {
	rel, err := relation.ReadCSV(src, m.Spec())
	if err != nil {
		return nil, err
	}
	if err := m.ApplyDerived(rel); err != nil {
		return nil, err
	}
	return rel, nil
}

// ApplyDerived materializes the manifest's derived structure on a freshly
// loaded relation: hierarchies are declared (path variants derive their
// level columns first) and range-bin columns bin against the manifest's
// recorded edges, or against edges fitted over r when it records none.
// Derived state rides the relation from here on — snapshots persist it,
// and appended base-schema rows re-derive against it. The manifest is not
// modified.
func (m *Manifest) ApplyDerived(r *relation.Relation) error {
	for i := range m.Hierarchies {
		h := &m.Hierarchies[i]
		var err error
		if h.PathCol != "" {
			err = r.DeriveHierarchyFromPath(h.Name, h.PathCol, h.EffectiveDelim(), h.Levels)
		} else {
			err = r.DeclareHierarchy(h.Name, h.Levels)
		}
		if err != nil {
			return fmt.Errorf("catalog: dataset %q: %w", m.Name, err)
		}
	}
	for i := range m.RangeBins {
		rb := &m.RangeBins[i]
		var err error
		if rb.Edges != nil {
			err = r.AddRangeBinEdges(rb.EffectiveAs(), rb.Column, *rb.Edges)
		} else {
			err = r.AddRangeBin(rb.EffectiveAs(), rb.Column, rb.EffectiveBins())
		}
		if err != nil {
			return fmt.Errorf("catalog: dataset %q: %w", m.Name, err)
		}
	}
	return nil
}

// AggFunc resolves the manifest's aggregate name; empty defaults to SUM.
func (m *Manifest) AggFunc() (relation.AggFunc, error) {
	if m.Agg == "" {
		return relation.Sum, nil
	}
	f, err := relation.ParseAggFunc(m.Agg)
	if err != nil {
		return 0, fmt.Errorf("catalog: %w", err)
	}
	return f, nil
}

// EffectiveMaxOrder returns the order threshold β̄ after defaults: 3,
// capped at the number of explain-by attributes.
func (m *Manifest) EffectiveMaxOrder() int {
	o := m.MaxOrder
	if o <= 0 {
		o = 3
	}
	nBy := len(m.ExplainBy)
	if nBy == 0 {
		nBy = len(m.DimCols)
	}
	if o > nBy {
		o = nBy
	}
	return o
}
