// Package explain implements candidate explanations and difference
// metrics for TSExplain.
//
// An explanation E (Definition 3.1) is a conjunction of equality
// predicates over the user-selected explain-by attributes. This package
// enumerates every candidate explanation that occurs in the relation up to
// an order threshold β̄, precomputes each candidate's decomposed aggregate
// time series (the "data cube" access of Section 5.2 module a), and scores
// candidates over arbitrary segments with the difference-metric library:
// absolute-change (Definition 3.2, the paper's default), relative-change,
// and risk-ratio.
package explain

import (
	"fmt"
	"sort"

	"repro/internal/relation"
)

// Candidate is one enumerated explanation together with its precomputed
// per-timestamp aggregate state.
type Candidate struct {
	// ID is the candidate's dense index within its Universe.
	ID int
	// Conj is the predicate conjunction selecting the candidate's data
	// slice.
	Conj relation.Conjunction
	// Series is the decomposed aggregate of σ_E R per timestamp.
	Series []relation.SumCount
}

// Universe holds every candidate explanation for one (relation, measure,
// aggregate, explain-by attributes) quadruple, plus the overall aggregated
// series. It is the output of the Preprocessing module and the input to
// the Cascading Analysts and K-Segmentation modules.
type Universe struct {
	rel       *relation.Relation
	agg       relation.AggFunc
	measure   int
	explainBy []int // dimension indexes, sorted
	maxOrder  int

	total []relation.SumCount
	cands []*Candidate
	index *candIndex

	// childrenFlat indexes candidate extensions for the drill-down tree
	// the Cascading Analysts hot path walks: childrenFlat[parentID+1]
	// (index 0 is the root) is nil for leaves, otherwise a slice indexed by
	// explain-by dimension *position* holding the sorted IDs of the
	// candidates extending the parent by one predicate over that
	// dimension, as compact uint32 — no map, no string keys.
	childrenFlat [][][]uint32
	// dimPos maps a relation dimension index to its position in explainBy
	// (−1 when the dimension is not explained), the indirection that lets
	// childrenFlat drop its per-node map.
	dimPos []int32
	// The ancestor closure (every non-empty sub-conjunction of a
	// candidate, itself included) in CSR form: candidate id's ancestors
	// are ancIDs[ancOff[id]:ancOff[id+1]]. Streaming appends only ever add
	// candidates at the tail, so the CSR layout extends in place.
	ancOff []uint32
	ancIDs []uint32

	// hier holds the relation hierarchies with ≥ 2 levels kept in
	// explainBy; hierOf/hierLevel map each explain-by position to its
	// hierarchy index and kept level (−1 when flat). Non-empty hier puts
	// enumeration in grouped roll-up form (see hierarchy.go).
	hier      []hierKept
	hierOf    []int32
	hierLevel []int32

	// raw is the candidate-major series arena: candidate id's decomposed
	// raw (pre-smoothing) series occupies raw[id*arenaCap : id*arenaCap+T].
	// The stride leaves tail headroom under Config.Streaming so appends
	// extend series in place instead of reallocating per update.
	raw      []relation.SumCount
	arenaCap int
	// arenaMapped is set when raw aliases a read-only snapshot mapping
	// instead of a heap allocation (DecodeUniverseSnapshot): the
	// arena bytes are then kernel-evictable, excluded from ApproxBytes
	// and reported through MappedBytes instead, and must never be
	// written — mapped universes are one-shot (stream == nil), so the
	// append path can't reach them, and Smooth writes its own arena.
	arenaMapped bool
	// backing pins whatever owns the mapped arena's bytes (an
	// mmapfile.File) for as long as the universe — and any Candidate
	// Series aliasing the arena — is reachable.
	backing interface{ Close() error }
	// rawTotal is the raw overall aggregate series; total aliases it until
	// Smooth replaces the active view with the smoothed one.
	rawTotal []relation.SumCount

	smooth *smoothState // non-nil once Smooth ran on an arena-backed universe
	stream *streamState // non-nil when built with Config.Streaming
}

// streamState is the retained pass-1 state that lets Append consume only
// newly arrived rows: one group-by plan per explain-by subset, plus the
// mapping from each plan's group ranks to universe candidate IDs.
type streamState struct {
	subsets  [][]int
	plans    []*relation.GroupByPlan
	candOf   [][]int // per subset: group rank -> candidate ID
	ingested int     // relation rows already consumed
	workers  int
}

// Config controls candidate enumeration.
type Config struct {
	// Measure is the name of the measure attribute M.
	Measure string
	// Agg is the aggregate function f.
	Agg relation.AggFunc
	// ExplainBy lists the explain-by attribute names A. Empty means all
	// dimension attributes, following the paper's default.
	ExplainBy []string
	// MaxOrder is the order threshold β̄ (default 3).
	MaxOrder int
	// Hierarchies lists taxonomies to declare on the relation before
	// enumeration, each an ordered coarse→fine list of dimension names.
	// Hierarchies already declared on the relation (by the catalog, a
	// restored snapshot, or a previous engine) are picked up automatically
	// and entries matching one of them are accepted as-is. When at least
	// two levels of a hierarchy appear in ExplainBy, enumeration switches
	// to grouped roll-up form: mixed-level conjunctions are excluded, and
	// candidates gain taxonomy drill-down edges to their roll-ups.
	Hierarchies [][]string
	// Parallelism fans the per-subset group-bys of candidate enumeration
	// across this many goroutines. 0 or 1 builds the universe serially;
	// the resulting candidate IDs, series, and adjacency are identical
	// either way.
	Parallelism int
	// Streaming retains the group-by plans and allocates the series arena
	// with tail headroom so Append can extend the universe from newly
	// arrived rows in O(delta). One-shot universes leave it false and pay
	// neither the headroom nor the retained plan state.
	Streaming bool
	// Cancel, when non-nil, is polled between units of enumeration work; a
	// non-nil return aborts construction with that error. The serving
	// layer passes ctx.Err here so a request deadline stops a half-built
	// universe instead of letting it run to completion.
	Cancel func() error
}

// candIndex resolves a conjunction to its candidate ID. When the relation
// fits (≤ 16 dims, dictionaries ≤ 65536, β̄ ≤ 3 — every configuration the
// engine meets in practice) it is keyed by packed uint64 conjunctions and
// the hot paths never build a string; otherwise it transparently falls
// back to the legacy Conjunction.Key() strings.
type candIndex struct {
	// Candidate ids are stored as uint32 — candidate counts are bounded
	// far below 2^32, and the narrower value type shrinks the map's bucket
	// footprint on the enumerate/lookup hot path.
	packed map[relation.PackedConj]uint32
	str    map[string]uint32
}

func newCandIndex(r *relation.Relation, maxOrder int) *candIndex {
	if relation.CanPackConjs(r, maxOrder) {
		return &candIndex{packed: make(map[relation.PackedConj]uint32)}
	}
	return &candIndex{str: make(map[string]uint32)}
}

func (ix *candIndex) insert(c relation.Conjunction, id int) {
	if ix.packed != nil {
		if k, ok := relation.PackConj(c); ok {
			ix.packed[k] = uint32(id)
			return
		}
		// Unreachable when newCandIndex vetted the relation; guard anyway.
		ix.str = make(map[string]uint32)
		//tsexplain:unordered map-to-map migration keyed by distinct conjunction keys
		for k, v := range ix.packed {
			ix.str[k.Unpack().Key()] = v
		}
		ix.packed = nil
	}
	ix.str[c.Key()] = uint32(id)
}

func (ix *candIndex) lookup(c relation.Conjunction) (int, bool) {
	if ix.packed != nil {
		if k, ok := relation.PackConj(c); ok {
			id, ok := ix.packed[k]
			return int(id), ok
		}
		return 0, false
	}
	id, ok := ix.str[c.Key()]
	return int(id), ok
}

// NewUniverse enumerates all candidate explanations of order ≤ β̄ that
// occur in r and precomputes their aggregate series.
func NewUniverse(r *relation.Relation, cfg Config) (*Universe, error) {
	m := r.MeasureIndex(cfg.Measure)
	if m < 0 {
		return nil, fmt.Errorf("explain: unknown measure %q", cfg.Measure)
	}
	maxOrder := cfg.MaxOrder
	if maxOrder <= 0 {
		maxOrder = 3
	}
	var dims []int
	if len(cfg.ExplainBy) == 0 {
		for i := 0; i < r.NumDims(); i++ {
			dims = append(dims, i)
		}
	} else {
		for _, name := range cfg.ExplainBy {
			d := r.DimIndex(name)
			if d < 0 {
				return nil, fmt.Errorf("explain: unknown explain-by attribute %q", name)
			}
			dims = append(dims, d)
		}
		sort.Ints(dims)
		for i := 1; i < len(dims); i++ {
			if dims[i] == dims[i-1] {
				return nil, fmt.Errorf("explain: duplicate explain-by attribute %q", r.Dim(dims[i]).Name())
			}
		}
	}
	if maxOrder > len(dims) {
		maxOrder = len(dims)
	}

	u := &Universe{
		rel:       r,
		agg:       cfg.Agg,
		measure:   m,
		explainBy: dims,
		maxOrder:  maxOrder,
		rawTotal:  r.AggregateSeries(m),
		index:     newCandIndex(r, maxOrder),
	}
	u.total = u.rawTotal

	// Enumerate every attribute subset of size 1..β̄ and group-by each
	// with the columnar kernel: plan all subsets (pass 1), allocate ONE
	// candidate-major arena backing every candidate's series, then fill
	// the disjoint arena ranges (pass 2). Both passes fan across the
	// worker pool; the kernel orders each subset's groups by id tuple, so
	// candidate IDs are deterministic and identical at any parallelism.
	workers := cfg.Parallelism
	cancel := cfg.Cancel
	if cancel == nil {
		cancel = func() error { return nil }
	}
	if err := u.declareConfigHierarchies(cfg.Hierarchies); err != nil {
		return nil, err
	}
	u.initDimPos()
	u.resolveHierarchies()
	subsetList := subsets(dims, maxOrder)
	if len(u.hier) > 0 {
		subsetList = u.filterHierSubsets(subsetList)
	}
	plans := make([]*relation.GroupByPlan, len(subsetList))
	runIndexed(len(subsetList), workers, func(i int) {
		if cancel() != nil {
			return
		}
		plans[i] = r.PlanGroupBy(subsetList[i], m)
	})
	if err := cancel(); err != nil {
		return nil, err
	}
	T := r.NumTimestamps()
	offsets := make([]int, len(plans)+1)
	for i, p := range plans {
		offsets[i+1] = offsets[i] + p.NumGroups()
	}
	totalGroups := offsets[len(plans)]
	// Streaming universes get segcache-style headroom in both dimensions
	// (timestamps per series, candidate slots) so the common append —
	// later days, maybe a few new candidates — never reallocates.
	u.arenaCap = T
	slotCap := totalGroups
	if cfg.Streaming {
		u.arenaCap = T + T/2 + 8
		slotCap = totalGroups + totalGroups/4 + 16
		grown := make([]relation.SumCount, T, u.arenaCap)
		copy(grown, u.rawTotal)
		u.rawTotal = grown
		u.total = u.rawTotal
	}
	u.raw = make([]relation.SumCount, slotCap*u.arenaCap)
	runIndexed(len(plans), workers, func(i int) {
		if plans[i].NumGroups() == 0 || cancel() != nil {
			return
		}
		plans[i].FillArena(u.raw[offsets[i]*u.arenaCap:(offsets[i]+plans[i].NumGroups())*u.arenaCap], u.arenaCap)
	})
	if err := cancel(); err != nil {
		return nil, err
	}
	u.cands = make([]*Candidate, 0, totalGroups)
	for si, p := range plans {
		subset := subsetList[si]
		for g, ng := 0, p.NumGroups(); g < ng; g++ {
			ids := p.GroupIDsAt(g)
			conj := make(relation.Conjunction, len(subset))
			for i := range subset {
				conj[i] = relation.Pred{Dim: subset[i], Value: ids[i]}
			}
			id := len(u.cands)
			c := &Candidate{ID: id, Conj: conj, Series: u.raw[id*u.arenaCap : id*u.arenaCap+T : (id+1)*u.arenaCap]}
			u.cands = append(u.cands, c)
			u.index.insert(conj, id)
		}
	}
	if cfg.Streaming {
		candOf := make([][]int, len(plans))
		for si := range plans {
			ids := make([]int, plans[si].NumGroups())
			for g := range ids {
				ids[g] = offsets[si] + g
			}
			candOf[si] = ids
		}
		u.stream = &streamState{
			subsets:  subsetList,
			plans:    plans,
			candOf:   candOf,
			ingested: r.NumRows(),
			workers:  workers,
		}
	}

	u.buildDerivedIndexes()
	return u, nil
}

// buildDerivedIndexes computes the state derived purely from the
// candidate list and index: the drill-down adjacency and the ancestor
// closure. It is shared by NewUniverse and the snapshot decoder — a
// restored universe rebuilds this cheap derived state in memory instead
// of persisting it.
func (u *Universe) buildDerivedIndexes() {
	u.initDimPos()
	if u.hierOf == nil {
		// Snapshot-decoded universes resolve their (relation-declared,
		// hence persisted) hierarchies here; NewUniverse resolved before
		// enumeration.
		u.resolveHierarchies()
	}
	// Build the drill-down adjacency: each candidate of order β is a child
	// of each of its β order-(β−1) prefixes, under the removed dimension.
	u.childrenFlat = make([][][]uint32, len(u.cands)+1)
	for _, c := range u.cands {
		for _, p := range c.Conj {
			parent := c.Conj.Without(p.Dim)
			parentID := 0 // root
			if len(parent) > 0 {
				id, ok := u.index.lookup(parent)
				if !ok {
					// Every prefix of an occurring conjunction occurs, so
					// this is unreachable; guard anyway.
					continue
				}
				parentID = id + 1
			}
			u.addChildFlat(parentID, p.Dim, uint32(c.ID))
		}
	}
	if len(u.hier) > 0 {
		for _, c := range u.cands {
			u.addTaxEdges(c)
		}
	}
	// Sort child lists once so the DP and its extraction never re-sort.
	for _, byPos := range u.childrenFlat {
		for _, kids := range byPos {
			sort.Slice(kids, func(i, j int) bool { return kids[i] < kids[j] })
		}
	}

	// Precompute each candidate's ancestor closure (every non-empty
	// sub-conjunction, itself included). The Cascading Analysts DP uses
	// it to prune drill-down to subtrees that can still reach a
	// selectable candidate.
	u.ancOff = make([]uint32, 1, len(u.cands)+1)
	u.ancIDs = u.ancIDs[:0]
	for _, c := range u.cands {
		u.appendAncestors(c.Conj)
	}
}

// initDimPos (re)builds the dimension-index → explain-by-position map.
func (u *Universe) initDimPos() {
	u.dimPos = make([]int32, u.rel.NumDims())
	for i := range u.dimPos {
		u.dimPos[i] = -1
	}
	for pos, d := range u.explainBy {
		u.dimPos[d] = int32(pos)
	}
}

// addChildFlat records child id under (parentID, dim) in the flat
// adjacency, allocating the parent's per-dimension slot vector lazily.
func (u *Universe) addChildFlat(parentID, dim int, id uint32) {
	byPos := u.childrenFlat[parentID]
	if byPos == nil {
		byPos = make([][]uint32, len(u.explainBy))
		u.childrenFlat[parentID] = byPos
	}
	pos := u.dimPos[dim]
	byPos[pos] = append(byPos[pos], id)
}

// appendAncestors resolves conj's non-empty generalizations and appends
// the closure as the next CSR row of (ancOff, ancIDs): without
// hierarchies these are exactly the sub-conjunctions; in grouped roll-up
// form each hierarchy predicate may additionally coarsen to any kept
// level above it (see appendGeneralizations).
func (u *Universe) appendAncestors(conj relation.Conjunction) {
	if len(u.hier) > 0 {
		u.appendGeneralizations(conj)
		return
	}
	for _, sub := range conjSubsets(conj) {
		if aid, ok := u.index.lookup(sub); ok {
			u.ancIDs = append(u.ancIDs, uint32(aid))
		}
	}
	u.ancOff = append(u.ancOff, uint32(len(u.ancIDs)))
}

// conjSubsets enumerates every non-empty sub-conjunction of c (c itself
// included). A conjunction of order β has 2^β − 1 of them.
func conjSubsets(c relation.Conjunction) []relation.Conjunction {
	var out []relation.Conjunction
	n := len(c)
	for mask := 1; mask < 1<<n; mask++ {
		sub := make(relation.Conjunction, 0, n)
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				sub = append(sub, c[i])
			}
		}
		out = append(out, sub)
	}
	return out
}

// AncestorsOf returns the candidate IDs of every non-empty
// sub-conjunction of candidate id, id itself included.
func (u *Universe) AncestorsOf(id int) []uint32 {
	return u.ancIDs[u.ancOff[id]:u.ancOff[id+1]]
}

// ChildrenOf returns the candidate IDs extending node nodeID (-1 for the
// root) by one predicate over dimension dim, sorted ascending.
func (u *Universe) ChildrenOf(nodeID, dim int) []uint32 {
	byPos := u.childrenFlat[nodeID+1]
	if byPos == nil || dim >= len(u.dimPos) {
		return nil
	}
	pos := u.dimPos[dim]
	if pos < 0 {
		return nil
	}
	return byPos[pos]
}

// subsets returns all non-empty subsets of dims with size ≤ maxSize, each
// sorted ascending.
func subsets(dims []int, maxSize int) [][]int {
	var out [][]int
	n := len(dims)
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		if len(cur) > 0 {
			out = append(out, append([]int(nil), cur...))
		}
		if len(cur) == maxSize {
			return
		}
		for i := start; i < n; i++ {
			rec(i+1, append(cur, dims[i]))
		}
	}
	rec(0, nil)
	return out
}

// Relation returns the underlying relation.
func (u *Universe) Relation() *relation.Relation { return u.rel }

// Agg returns the aggregate function being explained.
func (u *Universe) Agg() relation.AggFunc { return u.agg }

// MeasureIndex returns the measure attribute index being aggregated.
func (u *Universe) MeasureIndex() int { return u.measure }

// ExplainBy returns the explain-by dimension indexes (sorted).
func (u *Universe) ExplainBy() []int {
	return append([]int(nil), u.explainBy...)
}

// MaxOrder returns the enumeration order threshold β̄.
func (u *Universe) MaxOrder() int { return u.maxOrder }

// NumCandidates returns ε, the number of candidate explanations.
func (u *Universe) NumCandidates() int { return len(u.cands) }

// Candidate returns the candidate with the given dense ID.
func (u *Universe) Candidate(id int) *Candidate { return u.cands[id] }

// Lookup resolves a conjunction to its candidate ID; ok is false when the
// conjunction never occurs in the data.
func (u *Universe) Lookup(c relation.Conjunction) (id int, ok bool) {
	return u.index.lookup(c)
}

// NumTimestamps returns n, the length of the aggregated series.
func (u *Universe) NumTimestamps() int { return len(u.total) }

// ApproxBytes estimates the heap footprint of the universe's bulk state:
// the raw candidate-series arena (unless it aliases a snapshot mapping —
// mapped bytes are kernel-evictable and reported by MappedBytes), the
// smoothed views and prefix sums, the candidate records and index, the
// drill-down adjacency and ancestor closure, the taxonomy tables, and
// the relation's hierarchy/derived-column state. It deliberately ignores
// small fixed overheads — the serving layer's memory budget only needs a
// consistent relative cost per pooled engine, not an exact accounting —
// but every structure that scales with candidates or rows is counted, so
// hierarchical and range-binned datasets no longer undercharge eviction.
func (u *Universe) ApproxBytes() int64 {
	const scSize = 16 // relation.SumCount: two float64s
	var b int64
	if !u.arenaMapped {
		b += int64(cap(u.raw)) * scSize
	}
	b += int64(cap(u.rawTotal)) * scSize
	if u.smooth != nil {
		b += int64(cap(u.smooth.arena)+cap(u.smooth.total)+
			cap(u.smooth.prefix)+cap(u.smooth.totPrefix)) * scSize
	}
	// Candidate records, conjunctions, and candidate-index entries: ~96
	// bytes each on 64-bit platforms, measured coarsely.
	b += int64(len(u.cands)) * 96
	// Drill-down adjacency: the flat per-node dimension vectors plus the
	// child ids themselves.
	for _, byPos := range u.childrenFlat {
		if byPos == nil {
			continue
		}
		b += 24 * int64(len(byPos)) // slice headers
		for _, kids := range byPos {
			b += 4 * int64(cap(kids))
		}
	}
	// Ancestor closure (CSR) and the explain-by position map.
	b += 4 * int64(cap(u.ancOff)+cap(u.ancIDs)+cap(u.dimPos))
	// Taxonomy tables: per-candidate hierarchy/level columns plus each
	// kept hierarchy's level metadata.
	b += 4 * int64(cap(u.hierOf)+cap(u.hierLevel))
	for i := range u.hier {
		b += 20 * int64(len(u.hier[i].kept)) // kept/dims/pos per level
	}
	// Relation-side state this universe forced into existence and keeps
	// reachable: hierarchy parent maps and derived (path-level and
	// range-bin) columns. The relation is shared between engines of one
	// dataset, so this coarsely double-charges shared state — erring
	// toward overcharging keeps eviction safe, where the old accounting
	// undercharged it to zero.
	b += u.rel.DerivedBytes()
	return b
}

// MappedBytes reports the size of the candidate arena when it aliases a
// read-only snapshot mapping, and 0 for heap-backed universes. Mapped
// bytes are kernel-evictable: they cost address space and page-cache
// residency under load, not Go heap, so the serving layer budgets them
// separately from ApproxBytes.
func (u *Universe) MappedBytes() int64 {
	if !u.arenaMapped {
		return 0
	}
	return int64(len(u.raw)) * 16
}

// ArenaMapped reports whether the candidate arena aliases a read-only
// snapshot mapping (see DecodeUniverseSnapshot).
func (u *Universe) ArenaMapped() bool { return u.arenaMapped }

// SetBacking pins the owner of a mapped arena's bytes (the catalog's
// mmapfile handle) to the universe, keeping the mapping alive while the
// universe — or any slice into its arena — is reachable. The owner's
// finalizer unmaps once the universe is collected.
func (u *Universe) SetBacking(b interface{ Close() error }) { u.backing = b }

// TotalSeries returns the decomposed overall aggregate per timestamp.
func (u *Universe) TotalSeries() []relation.SumCount { return u.total }

// TotalValues evaluates the overall aggregated time series ts(R).
func (u *Universe) TotalValues() []float64 {
	return relation.Values(u.agg, u.total)
}

// CandidateValues evaluates candidate id's aggregated series ts(σ_E R).
func (u *Universe) CandidateValues(id int) []float64 {
	return relation.Values(u.agg, u.cands[id].Series)
}

// Describe renders candidate id's conjunction with names resolved.
func (u *Universe) Describe(id int) string {
	return u.cands[id].Conj.String(u.rel)
}
