package explain

import (
	"math"

	"repro/internal/relation"
)

// ScoreTable is the Cascading Analysts module's scoring input: the active
// series (smoothed when smoothing is on) of a fixed, ascending list of
// selectable candidates, laid out time-major — row t holds every listed
// candidate's value at position t contiguously — so scoring one segment
// streams two rows instead of chasing one arena slot per candidate. Only
// the components the aggregate reads are kept: Sum for SUM, Count for
// COUNT, both for AVG.
//
// A table that lists a strict subset of the candidates also carries the
// drill-down adjacency pruned to the listed candidates' ancestor closure
// — the only nodes a solve over them can reach — so the DP never scans
// children it would skip anyway.
//
// A table is read-only while solves run, so any number of solvers may
// share it; Refresh rewrites it after an append.
type ScoreTable struct {
	u   *Universe
	ids []int
	// allowed is the membership bitmap of ids over every candidate of u.
	allowed []bool
	rows    int       // positions held
	sum     []float64 // sum[t*len(ids)+k]: Sum of ids[k] at t; nil for COUNT
	count   []float64 // count[t*len(ids)+k]: Count of ids[k] at t; nil for SUM

	// The pruned adjacency in CSR form, nil when every candidate is
	// listed: rowOf[id+1] (0 is the root) is the node's row, −1 outside
	// the closure; row r's children along explain-by position p are
	// kidIDs[kidOff[r*P+p]:kidOff[r*P+p+1]], P = len(explainBy).
	rowOf  []int32
	kidOff []int32
	kidIDs []uint32

	// leaves is a bitmap over candidate ids: bit id is set when the node
	// has no children along any dimension in the adjacency ChildrenOf
	// reads. The Cascading Analysts DP folds such a child into its
	// knapsack without recursing. Refresh rebuilds it, so it always
	// describes the adjacency as the universe stands.
	leaves []uint64
}

// NewScoreTable builds the table for the listed candidates of u. ids must
// be ascending and is retained: the caller must not modify it afterwards.
// nil lists every candidate.
func NewScoreTable(u *Universe, ids []int) *ScoreTable {
	if ids == nil {
		ids = u.AllCandidateIDs()
	}
	tb := &ScoreTable{u: u, ids: ids}
	tb.growAllowed()
	tb.fill(0)
	if len(ids) < u.NumCandidates() {
		tb.pruneAdjacency()
	}
	tb.buildLeaves()
	return tb
}

// pruneAdjacency builds the drill-down adjacency restricted to the
// ancestor closure of the listed candidates, keeping each child list's
// ascending order. Candidates an append registers later are never in the
// closure: an ancestor of an existing slice occurs wherever it does, so
// it already existed.
func (tb *ScoreTable) pruneAdjacency() {
	u := tb.u
	in := make([]bool, u.NumCandidates()+1) // closure membership by id+1
	in[0] = true
	for _, id := range tb.ids {
		for _, a := range u.AncestorsOf(id) {
			in[a+1] = true
		}
	}
	P := len(u.explainBy)
	tb.rowOf = make([]int32, len(in))
	tb.kidOff = append(tb.kidOff, 0)
	rows := int32(0)
	for node, ok := range in {
		if !ok {
			tb.rowOf[node] = -1
			continue
		}
		tb.rowOf[node] = rows
		rows++
		byPos := u.childrenFlat[node]
		for p := 0; p < P; p++ {
			if byPos != nil {
				for _, kid := range byPos[p] {
					if in[kid+1] {
						tb.kidIDs = append(tb.kidIDs, kid)
					}
				}
			}
			tb.kidOff = append(tb.kidOff, int32(len(tb.kidIDs)))
		}
	}
}

// ChildrenOf is Universe.ChildrenOf restricted to the nodes a solve over
// the listed candidates can reach: the candidate IDs extending node
// nodeID (-1 for the root) by one predicate over dimension dim, ascending.
func (tb *ScoreTable) ChildrenOf(nodeID, dim int) []uint32 {
	if dim >= len(tb.u.dimPos) || tb.u.dimPos[dim] < 0 {
		return nil
	}
	return tb.kidsAt(nodeID, int(tb.u.dimPos[dim]))
}

// kidsAt returns node's children along explain-by position p in the
// adjacency the table reads; node is a candidate id, or −1 for the root.
func (tb *ScoreTable) kidsAt(node, p int) []uint32 {
	if tb.rowOf == nil {
		byPos := tb.u.childrenFlat[node+1]
		if byPos == nil {
			return nil
		}
		return byPos[p]
	}
	if node+1 >= len(tb.rowOf) || tb.rowOf[node+1] < 0 {
		return nil
	}
	i := int(tb.rowOf[node+1])*len(tb.u.explainBy) + p
	return tb.kidIDs[tb.kidOff[i]:tb.kidOff[i+1]]
}

// buildLeaves (re)builds the leaf bitmap over every candidate of u.
func (tb *ScoreTable) buildLeaves() {
	n := tb.u.NumCandidates()
	words := (n + 63) / 64
	if cap(tb.leaves) < words {
		tb.leaves = make([]uint64, words)
	} else {
		tb.leaves = tb.leaves[:words]
		clear(tb.leaves)
	}
	P := len(tb.u.explainBy)
	for id := 0; id < n; id++ {
		leaf := true
		for p := 0; p < P && leaf; p++ {
			leaf = len(tb.kidsAt(id, p)) == 0
		}
		if leaf {
			tb.leaves[id>>6] |= 1 << (id & 63)
		}
	}
}

// Leaves returns the leaf bitmap: bit id (word id/64, bit id%64) is set
// when candidate id has no children along any dimension in the adjacency
// ChildrenOf reads. It covers every candidate of the universe as of the
// build or the last Refresh, and is shared with the table.
func (tb *ScoreTable) Leaves() []uint64 { return tb.leaves }

// growAllowed sizes the membership bitmap to u's candidate count, marking
// the listed ids. Candidates registered by an append after the build are
// never listed, so their entries stay false.
func (tb *ScoreTable) growAllowed() {
	n := tb.u.NumCandidates()
	if len(tb.allowed) == n {
		return
	}
	grown := make([]bool, n)
	if tb.allowed == nil {
		for _, id := range tb.ids {
			grown[id] = true
		}
	} else {
		copy(grown, tb.allowed)
	}
	tb.allowed = grown
}

// fill (re)writes rows [from, T) from the universe's active series,
// growing the storage with headroom when the series got longer.
func (tb *ScoreTable) fill(from int) {
	T := tb.u.NumTimestamps()
	w := len(tb.ids)
	agg := tb.u.agg
	if agg != relation.Count {
		tb.sum = growRows(tb.sum, from*w, T, w)
	}
	if agg != relation.Sum {
		tb.count = growRows(tb.count, from*w, T, w)
	}
	for k, id := range tb.ids {
		series := tb.u.cands[id].Series
		if tb.sum != nil {
			for t := from; t < T; t++ {
				tb.sum[t*w+k] = series[t].Sum
			}
		}
		if tb.count != nil {
			for t := from; t < T; t++ {
				tb.count[t*w+k] = series[t].Count
			}
		}
	}
	tb.rows = T
}

// growRows returns buf resized to T rows of width w, keeping its first
// keep values. A first allocation is exact (one-shot engines never grow);
// a regrowth leaves half again as many rows of headroom, so a stream of
// appends reallocates amortized O(1) times per appended position.
func growRows(buf []float64, keep, T, w int) []float64 {
	need := T * w
	if need <= cap(buf) {
		return buf[:need]
	}
	size := need
	if buf != nil {
		size = (T + T/2 + 8) * w
	}
	grown := make([]float64, need, size)
	copy(grown, buf[:keep])
	return grown
}

// Refresh brings the table up to date after the universe grew in place
// (Universe.Append) without changing the listed set: rows from changedFrom
// on are rewritten from the active series, new rows are appended, and
// earlier rows — whose series values the append left untouched — are
// kept. The leaf bitmap is rebuilt over the grown universe: a table that
// lists every candidate reads the live adjacency, which the append may
// have extended. The cost is O(len(IDs()) · (T − changedFrom)) plus
// O(NumCandidates · len(ExplainBy)) for the bitmap.
func (tb *ScoreTable) Refresh(changedFrom int) {
	if changedFrom > tb.rows {
		changedFrom = tb.rows
	}
	tb.growAllowed()
	tb.fill(changedFrom)
	tb.buildLeaves()
}

// IDs returns the listed candidate ids, ascending. The slice is shared
// with the table and must not be modified.
func (tb *ScoreTable) IDs() []int { return tb.ids }

// Allowed returns the membership bitmap of IDs over every candidate, or
// nil when the table lists every candidate of the universe — the form the
// Cascading Analysts DP takes for "anything is selectable".
func (tb *ScoreTable) Allowed() []bool {
	if len(tb.ids) == tb.u.NumCandidates() {
		return nil
	}
	return tb.allowed
}

// Lists reports whether the table lists exactly the candidates allowed
// admits: the true entries of allowed, or every candidate of the universe
// when allowed is nil.
func (tb *ScoreTable) Lists(allowed []bool) bool {
	n := tb.u.NumCandidates()
	if allowed == nil {
		return len(tb.ids) == n
	}
	k := 0
	for id := 0; id < n && id < len(allowed); id++ {
		if !allowed[id] {
			continue
		}
		if k >= len(tb.ids) || tb.ids[k] != id {
			return false
		}
		k++
	}
	return k == len(tb.ids)
}

// Bytes is the table's heap footprint: the value rows (with any append
// headroom), the id list, the membership bitmap, the pruned adjacency and
// the leaf bitmap.
func (tb *ScoreTable) Bytes() int64 {
	return 8*int64(cap(tb.sum)+cap(tb.count)+len(tb.ids)+cap(tb.leaves)) + int64(len(tb.allowed)) +
		4*int64(len(tb.rowOf)+cap(tb.kidOff)+cap(tb.kidIDs))
}

// Equal reports whether two tables list the same candidates and hold
// bit-identical values over the same number of rows.
func (tb *ScoreTable) Equal(o *ScoreTable) bool {
	if tb.rows != o.rows || len(tb.ids) != len(o.ids) {
		return false
	}
	for k := range tb.ids {
		if tb.ids[k] != o.ids[k] {
			return false
		}
	}
	n := tb.rows * len(tb.ids)
	return sameBits(tb.sum, o.sum, n) && sameBits(tb.count, o.count, n)
}

// sameBits compares the first n values of a and b bit for bit; two nil
// slices are equal.
func sameBits(a, b []float64, n int) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	for i := 0; i < n && a != nil; i++ {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Score writes, for every listed candidate id, its difference score γ and
// change effect τ over the segment [c, t] into gamma[id] and effect[id];
// entries of unlisted ids are left untouched. The overall-series terms and
// the aggregate/metric dispatch are resolved once per segment, and each
// candidate then runs exactly the floating-point operations of
// Metric.Score in the same order, so every γ is bit-identical to
// Universe.Gamma. gamma and effect must hold at least NumCandidates
// entries.
//
//tsexplain:hotpath
func (tb *ScoreTable) Score(c, t int, m Metric, gamma []float64, effect []Effect) {
	f := tb.u.agg
	totC, totT := tb.u.total[c], tb.u.total[t]
	evC, evT := f.Eval(totC.Sum, totC.Count), f.Eval(totT.Sum, totT.Count)
	base := evT - evC
	w := len(tb.ids)
	switch f {
	case relation.Sum:
		sC, sT := tb.sum[c*w:(c+1)*w], tb.sum[t*w:(t+1)*w]
		for k, id := range tb.ids {
			delta := base - ((totT.Sum - sT[k]) - (totC.Sum - sC[k]))
			gamma[id], effect[id] = math.Abs(delta), effectOf(delta)
		}
	case relation.Count:
		nC, nT := tb.count[c*w:(c+1)*w], tb.count[t*w:(t+1)*w]
		for k, id := range tb.ids {
			delta := base - ((totT.Count - nT[k]) - (totC.Count - nC[k]))
			gamma[id], effect[id] = math.Abs(delta), effectOf(delta)
		}
	case relation.Avg:
		sC, sT := tb.sum[c*w:(c+1)*w], tb.sum[t*w:(t+1)*w]
		nC, nT := tb.count[c*w:(c+1)*w], tb.count[t*w:(t+1)*w]
		for k, id := range tb.ids {
			removed := relation.Avg.Eval(totT.Sum-sT[k], totT.Count-nT[k]) -
				relation.Avg.Eval(totC.Sum-sC[k], totC.Count-nC[k])
			delta := base - removed
			gamma[id], effect[id] = math.Abs(delta), effectOf(delta)
		}
	default:
		panic("explain: invalid AggFunc")
	}

	switch m {
	case AbsoluteChange:
	case RelativeChange:
		// |δ| / |base| is the same single division Metric.Score performs.
		if denom := math.Abs(base); denom != 0 {
			for _, id := range tb.ids {
				gamma[id] /= denom
			}
		}
	case RiskRatio:
		overallC, overallT := math.Abs(evC), math.Abs(evT)
		for k, id := range tb.ids {
			shareT := share(overallT, tb.eval(f, t*w+k))
			shareC := share(overallC, tb.eval(f, c*w+k))
			gamma[id] = riskRatio(shareT, shareC)
		}
	default:
		panic("explain: invalid Metric")
	}
}

// eval evaluates the aggregate of the table entry at flat index i. The
// component the aggregate ignores is not stored and reads as zero.
func (tb *ScoreTable) eval(f relation.AggFunc, i int) float64 {
	var s, n float64
	if tb.sum != nil {
		s = tb.sum[i]
	}
	if tb.count != nil {
		n = tb.count[i]
	}
	return f.Eval(s, n)
}
