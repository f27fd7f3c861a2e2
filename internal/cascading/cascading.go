// Package cascading implements the Cascading Analysts algorithm (Ruhl,
// Sundararajan, Yan; SIGMOD 2018) that TSExplain uses to derive the top-m
// non-overlapping explanations E*_m for a segment (Definition 3.5 and
// Section 5.2 module b).
//
// The algorithm mirrors how an analyst drills down: starting from the
// whole relation, pick a dimension, split into that dimension's values,
// and within each value either report the slice as an explanation or
// drill further. A dynamic program over (node, quota) chooses the
// drill-down dimensions and distributes the m quota so the total
// difference score Σ γ(E) is maximized; non-overlap is guaranteed because
// sibling slices are disjoint and a reported slice is never refined
// further.
package cascading

import (
	"repro/internal/explain"
)

// Picked is one explanation in a result, with its difference score and
// change effect over the scored segment.
type Picked struct {
	// ID is the candidate ID within the Universe.
	ID int
	// Gamma is the difference score γ(E) over the segment.
	Gamma float64
	// Effect is the change effect τ(E) over the segment.
	Effect explain.Effect
}

// Result is the output of the algorithm for one segment.
type Result struct {
	// Explanations holds the selected non-overlapping explanations,
	// ranked by descending γ (the ranked list E*_m used by NDCG).
	Explanations []Picked
	// Best[q] is the maximal total difference score achievable with at
	// most q non-overlapping explanations, for q = 0..m. Best[m] is the
	// score of Explanations; the smaller entries are the DP side products
	// the guess-and-verify condition (Eq. 12) needs.
	Best []float64
}

// Solver runs the Cascading Analysts DP against one Universe and metric.
// A Solver reuses internal scratch buffers across Solve calls, so it is
// cheap per call but not safe for concurrent use.
type Solver struct {
	u      *explain.Universe
	metric explain.Metric
	m      int
	dims   []int // explain-by dims, fetched once (ExplainBy copies)

	// Reusable per-solve scratch: score buffers and a generation-tagged
	// memo that avoids reallocating or clearing ε-sized arrays on every
	// segment.
	gammaBuf  []float64
	effectBuf []explain.Effect
	memoBuf   [][]float64
	memoGen   []uint32
	curGen    uint32
	reachBuf  []bool
	marked    []int32
	zeroVec   []float64

	// Allocation-free hot path: memo DP vectors are carved out of one
	// arena per solve instead of one make per node; the knapsack scratch
	// of best() and the parent-pointer tables of extract() live in small
	// per-recursion-depth stacks (drill-down depth is bounded by β̄).
	vecArena []float64
	arenaOff int
	dpStack  [][]float64
	exDP     [][]float64
	exTake   [][]int
	exKid    [][]uint32
	picked   []int

	// GuessVerify scratch, reused across rounds and calls.
	chiBuf     []int
	allowedBuf []bool
	tailBuf    []int
}

// NewSolver returns a Solver that selects up to m non-overlapping
// explanations under the given metric.
func NewSolver(u *explain.Universe, metric explain.Metric, m int) *Solver {
	if m < 1 {
		m = 1
	}
	return &Solver{u: u, metric: metric, m: m, dims: u.ExplainBy()}
}

// Metric returns the difference metric the solver scores with.
func (s *Solver) Metric() explain.Metric { return s.metric }

// M returns the explanation quota m.
func (s *Solver) M() int { return s.m }

// segmentScores holds per-candidate γ and τ for one segment, indexed by
// candidate id. Only the entries of selectable candidates are written for
// the current segment; the others hold stale values from earlier solves,
// which is safe because the DP, its extraction, and the guess-and-verify
// check only ever read the score of a selectable candidate. The slices
// alias the Solver's scratch buffers and are only valid until the next
// solve.
type segmentScores struct {
	gamma  []float64
	effect []explain.Effect
}

// score fills the score buffers for segment [c, t] from the table, which
// covers exactly the selectable candidates, so per-segment cost scales
// with the selectable set rather than ε.
//
//tsexplain:hotpath
func (s *Solver) score(c, t int, tab *explain.ScoreTable) segmentScores {
	n := s.u.NumCandidates()
	if cap(s.gammaBuf) < n {
		s.gammaBuf = make([]float64, n)
		s.effectBuf = make([]explain.Effect, n)
	}
	sc := segmentScores{gamma: s.gammaBuf[:n], effect: s.effectBuf[:n]}
	tab.Score(c, t, s.metric, sc.gamma, sc.effect)
	return sc
}

// solveState carries the memoized DP for one segment solve. The memo is
// indexed by node ID + 1 (0 is the root) so the hot path never builds
// string keys.
type solveState struct {
	s       *Solver
	tab     *explain.ScoreTable // drill-down adjacency of the solve
	scores  segmentScores
	allowed []bool // nil means every candidate is selectable
	// reach marks nodes (index id+1) whose subtree contains a selectable
	// candidate; nil disables pruning.
	reach []bool
	// leaves is the table's leaf bitmap (ScoreTable.Leaves).
	leaves []uint64
}

// memoGet returns the cached DP vector for nodeID, or nil.
func (st *solveState) memoGet(nodeID int) []float64 {
	s := st.s
	if s.memoGen[nodeID+1] == s.curGen {
		return s.memoBuf[nodeID+1]
	}
	return nil
}

// memoPut stores the DP vector for nodeID under the current generation.
func (st *solveState) memoPut(nodeID int, v []float64) {
	s := st.s
	s.memoBuf[nodeID+1] = v
	s.memoGen[nodeID+1] = s.curGen
}

// Solve returns the top-m non-overlapping explanations for the segment
// with control endpoint c and test endpoint t (positions into the
// aggregated series). The table scores the segment and fixes the
// selectable set: exactly tab.IDs() may be *selected* (drill-down may
// still pass through other nodes).
func (s *Solver) Solve(c, t int, tab *explain.ScoreTable) Result {
	return s.solveScored(tab, s.score(c, t, tab), tab.Allowed(), tab.IDs())
}

// dpAt returns the zeroed knapsack scratch vector for the given recursion
// depth. Depth is bounded by the drill-down depth (β̄ + 1), so the stack
// stays tiny and no per-node allocation happens.
func (s *Solver) dpAt(depth int) []float64 {
	for len(s.dpStack) <= depth {
		s.dpStack = append(s.dpStack, make([]float64, s.m+1))
	}
	dp := s.dpStack[depth]
	for i := range dp {
		dp[i] = 0
	}
	return dp
}

// exBufs returns extract()'s parent-pointer tables for the given recursion
// depth, as flat (rows × (m+1)) arrays, plus the row → child id map, all
// grown on demand and reused across solves.
func (s *Solver) exBufs(depth, rows int) ([]float64, []int, []uint32) {
	for len(s.exDP) <= depth {
		s.exDP = append(s.exDP, nil)
		s.exTake = append(s.exTake, nil)
		s.exKid = append(s.exKid, nil)
	}
	need := rows * (s.m + 1)
	if cap(s.exDP[depth]) < need {
		s.exDP[depth] = make([]float64, need)
		s.exTake[depth] = make([]int, need)
	}
	if cap(s.exKid[depth]) < rows {
		s.exKid[depth] = make([]uint32, rows)
	}
	return s.exDP[depth][:need], s.exTake[depth][:need], s.exKid[depth][:rows]
}

// carveVec takes the next (m+1)-sized zeroed vector from the per-solve
// arena. Each node is memoized at most once per generation, so the arena
// sized at (ε+1)×(m+1) never overflows.
func (st *solveState) carveVec() []float64 {
	s := st.s
	out := s.vecArena[s.arenaOff : s.arenaOff+s.m+1 : s.arenaOff+s.m+1]
	s.arenaOff += s.m + 1
	for i := range out {
		out[i] = 0
	}
	return out
}

// solveScored runs the DP over prepared scores. allowed restricts
// selection (nil: every candidate) and ids lists its true entries, so
// reachability marking walks just the selectable set instead of all ε
// candidates.
//
//tsexplain:hotpath
func (s *Solver) solveScored(tab *explain.ScoreTable, scores segmentScores, allowed []bool, ids []int) Result {
	n := s.u.NumCandidates() + 1
	if cap(s.memoBuf) < n {
		s.memoBuf = make([][]float64, n)
		s.memoGen = make([]uint32, n)
	}
	if need := n * (s.m + 1); cap(s.vecArena) < need {
		s.vecArena = make([]float64, need)
	}
	s.arenaOff = 0
	s.curGen++
	st := &solveState{
		s:       s,
		tab:     tab,
		scores:  scores,
		allowed: allowed,
		leaves:  tab.Leaves(),
	}
	// Reachability pruning: when selection is restricted, only subtrees
	// containing a selectable candidate can contribute, so mark every
	// allowed candidate and its ancestors and let best() return zero for
	// everything else without descending.
	if allowed != nil {
		if cap(s.reachBuf) < n {
			s.reachBuf = make([]bool, n)
		}
		reach := s.reachBuf[:n]
		for _, id := range s.marked {
			reach[int(id)+1] = false
		}
		s.marked = s.marked[:0]
		for _, id := range ids {
			for _, anc := range s.u.AncestorsOf(id) {
				if !reach[anc+1] {
					reach[anc+1] = true
					s.marked = append(s.marked, int32(anc))
				}
			}
		}
		st.reach = reach
	}
	if s.zeroVec == nil || len(s.zeroVec) != s.m+1 {
		s.zeroVec = make([]float64, s.m+1)
	}
	// The Result escapes the solve (callers cache Results): Best is
	// copied out of the reusable arena, and Explanations is sized to the
	// picks. Once the scratch has grown, these are the solve's only
	// allocations.
	res := Result{Best: append([]float64(nil), st.best(-1, 0)...)}
	s.picked = s.picked[:0]
	st.extract(-1, s.m, 0)
	if len(s.picked) > 0 {
		res.Explanations = make([]Picked, len(s.picked))
		for i, id := range s.picked {
			res.Explanations[i] = Picked{
				ID:     id,
				Gamma:  scores.gamma[id],
				Effect: scores.effect[id],
			}
		}
		sortPickedByGamma(res.Explanations)
	}
	return res
}

// sortPickedByGamma stably sorts picks by descending γ with an insertion
// sort. It allocates nothing, and yields the permutation any stable sort
// under the same comparison yields, sort.SliceStable's included, as long
// as no γ is NaN.
//
//tsexplain:hotpath
func sortPickedByGamma(p []Picked) {
	for i := 1; i < len(p); i++ {
		x := p[i]
		j := i
		for ; j > 0 && x.Gamma > p[j-1].Gamma; j-- {
			p[j] = p[j-1]
		}
		p[j] = x
	}
}

// isLeaf reports whether node id has no children in the solve's
// adjacency.
func (st *solveState) isLeaf(id uint32) bool {
	w := int(id >> 6)
	return w < len(st.leaves) && st.leaves[w]&(1<<(id&63)) != 0
}

// leafGain is the g of a leaf's DP vector [0, g, …, g]: its γ when it is
// selectable and γ > 0, and 0 otherwise (reporting the leaf is its only
// option, and best's strict comparisons never take a γ ≤ 0 or NaN).
func (st *solveState) leafGain(id uint32) float64 {
	if !st.selectable(int(id)) {
		return 0
	}
	if g := st.scores.gamma[id]; g > 0 {
		return g
	}
	return 0
}

// leafStep folds a leaf child with gain g into the knapsack row dp. The
// generic step against the leaf's vector [0, g, …, g] is
//
//	dp[q] = max over 1 ≤ take ≤ q of dp[q−take] + g, if strictly larger.
//
// The row is non-decreasing in q and float addition is monotone, so
// take = 1 gives the largest candidate and later takes never win a strict
// comparison: the step reduces to dp[q] = max(dp[q], dp[q−1] + g) with the
// same comparison on the same operands, bit for bit. With g = 0 nothing
// changes at all.
//
//tsexplain:hotpath
func leafStep(dp []float64, g float64) {
	if !(g > 0) {
		return
	}
	for q := len(dp) - 1; q >= 1; q-- {
		if v := dp[q-1] + g; v > dp[q] {
			dp[q] = v
		}
	}
}

// selectable reports whether candidate id may be reported as an
// explanation.
func (st *solveState) selectable(id int) bool {
	return st.allowed == nil || st.allowed[id]
}

// best computes the DP vector for the subtree rooted at the given node:
// best[q] = max total γ selecting at most q non-overlapping explanations
// within the node's slice. nodeID is the candidate ID, or -1 for the root;
// depth is the drill-down recursion depth, which indexes the reusable
// knapsack scratch.
//
//tsexplain:hotpath
func (st *solveState) best(nodeID, depth int) []float64 {
	if st.reach != nil && nodeID >= 0 && !st.reach[nodeID+1] {
		return st.s.zeroVec
	}
	if v := st.memoGet(nodeID); v != nil {
		return v
	}
	m := st.s.m
	out := st.carveVec()

	// Option 1: drill down on any dimension the node leaves free and
	// distribute quota among that dimension's children by a small
	// knapsack. Child lists are pre-sorted by the universe, keeping
	// extraction deterministic.
	for _, dim := range st.s.dims {
		if nodeID >= 0 && st.s.u.Candidate(nodeID).Conj.HasDim(dim) {
			continue
		}
		kids := st.tab.ChildrenOf(nodeID, dim)
		if len(kids) == 0 {
			continue
		}
		dp := st.s.dpAt(depth)
		for _, kid := range kids {
			// An unreachable subtree contributes a zero vector, which can
			// never raise the (monotone) knapsack row: skip it entirely
			// instead of running the quota loop against zeros. Under a
			// tight restriction (guess rounds, the approximate top-M) this
			// skips almost every child.
			if st.reach != nil && !st.reach[kid+1] {
				continue
			}
			// A leaf needs neither a memoized vector nor the O(m²) step.
			if st.isLeaf(kid) {
				leafStep(dp, st.leafGain(kid))
				continue
			}
			kb := st.best(int(kid), depth+1)
			for q := m; q >= 1; q-- {
				for take := 1; take <= q; take++ {
					if v := dp[q-take] + kb[take]; v > dp[q] {
						dp[q] = v
					}
				}
			}
		}
		for q := 1; q <= m; q++ {
			if dp[q] > out[q] {
				out[q] = dp[q]
			}
		}
	}

	// Option 2: report this node itself (uses one quota, forecloses the
	// whole subtree since every descendant overlaps the node).
	if nodeID >= 0 && st.selectable(nodeID) {
		g := st.scores.gamma[nodeID]
		for q := 1; q <= m; q++ {
			if g > out[q] {
				out[q] = g
			}
		}
	}

	// Enforce monotonicity in q (at-most semantics).
	for q := 1; q <= m; q++ {
		if out[q] < out[q-1] {
			out[q] = out[q-1]
		}
	}
	st.memoPut(nodeID, out)
	return out
}

// extract re-walks the DP decisions to recover which explanations achieve
// best[q] at the given node, appending candidate IDs to the solver's
// picked scratch. depth indexes the reusable parent-pointer tables, which
// stay live across the recursive calls below (the recursion only ever
// uses deeper buffers).
//
//tsexplain:hotpath
func (st *solveState) extract(nodeID, q, depth int) {
	if q <= 0 {
		return
	}
	target := st.memoGet(nodeID)[q]
	if target == 0 {
		return
	}

	// Does reporting the node itself achieve the target?
	if nodeID >= 0 && st.selectable(nodeID) && st.scores.gamma[nodeID] >= target {
		st.s.picked = append(st.s.picked, nodeID)
		return
	}

	// Otherwise some drill-down does. Find the dimension and re-run its
	// knapsack with parent pointers to recover the quota split. As in
	// best, unreachable children are skipped (their zero vector never
	// wins a strict comparison) and leaves take the one-step form: the
	// first strictly better take for a leaf is always 1, so a leaf is
	// picked exactly when its row's take is nonzero.
	for _, dim := range st.s.dims {
		if nodeID >= 0 && st.s.u.Candidate(nodeID).Conj.HasDim(dim) {
			continue
		}
		kids := st.tab.ChildrenOf(nodeID, dim)
		if len(kids) == 0 {
			continue
		}
		m := st.s.m
		w := m + 1
		// dp[k*w+j]: best total over the first k kept children using
		// quota j; row k+1 belongs to child rowKid[k].
		dp, take, rowKid := st.s.exBufs(depth, len(kids)+1)
		for j := 0; j <= m; j++ {
			dp[j] = 0
		}
		rows := 0
		for _, kid := range kids {
			if st.reach != nil && !st.reach[kid+1] {
				continue
			}
			prev, cur := dp[rows*w:(rows+1)*w], dp[(rows+1)*w:(rows+2)*w]
			curTake := take[(rows+1)*w : (rows+2)*w]
			rowKid[rows] = kid
			rows++
			cur[0], curTake[0] = prev[0], 0
			if st.isLeaf(kid) {
				g := st.leafGain(kid)
				for j := 1; j <= m; j++ {
					cur[j], curTake[j] = prev[j], 0
					if v := prev[j-1] + g; v > cur[j] {
						cur[j], curTake[j] = v, 1
					}
				}
				continue
			}
			kb := st.best(int(kid), depth+1)
			for j := 1; j <= m; j++ {
				cur[j] = prev[j]
				curTake[j] = 0
				for x := 1; x <= j; x++ {
					if v := prev[j-x] + kb[x]; v > cur[j] {
						cur[j] = v
						curTake[j] = x
					}
				}
			}
		}
		if dp[rows*w+q] >= target {
			j := q
			for k := rows; k >= 1; k-- {
				x := take[k*w+j]
				if x == 0 {
					continue
				}
				if kid := rowKid[k-1]; st.isLeaf(kid) {
					st.s.picked = append(st.s.picked, int(kid))
				} else {
					st.extract(int(kid), x, depth+1)
				}
				j -= x
			}
			return
		}
	}
	// target > 0 but no branch reproduces it: impossible by construction.
	panic("cascading: extraction failed to reproduce DP value")
}
