package cascading

import (
	"repro/internal/explain"
)

// GuessVerify runs the guess-and-verify optimization of Section 5.3.1:
// instead of letting the DP consider all ε candidates, it restricts the
// selectable set to the m̄ candidates with the highest γ over the segment,
// doubles m̄ until the sufficient optimality condition of Eq. 12 holds,
// and returns a result guaranteed equal to the unrestricted Solve.
//
// initGuess is the initial m̄ (the paper initializes m̄ = 30 for m = 3);
// values < m are raised to m. The table scores the segment and fixes the
// selectable set (the filter optimization's survivors, or the approximate
// mode's top-M), exactly as for Solve. The second return value reports
// how many guess rounds ran (1 means the first guess verified), which the
// experiments use to characterize the optimization.
func (s *Solver) GuessVerify(c, t int, initGuess int, tab *explain.ScoreTable) (Result, int) {
	scores := s.score(c, t, tab)
	// χ: the selectable ids in ascending order, reordered in place by the
	// guess rounds; rather than fully sorting them per segment, each round
	// partially selects just the prefix it needs (the guess plus the
	// verification lookahead).
	chi := append(s.chiBuf[:0], tab.IDs()...)
	s.chiBuf = chi
	return s.guessVerifyScored(tab, scores, chi, tab.Allowed(), initGuess)
}

// guessVerifyScored runs the guess-and-verify rounds over a prepared
// score buffer and selectable id list. chi is solver scratch; it is
// reordered in place.
//
//tsexplain:hotpath
func (s *Solver) guessVerifyScored(tab *explain.ScoreTable, scores segmentScores, chi []int, base []bool, initGuess int) (Result, int) {
	n := len(scores.gamma)
	mbar := initGuess
	if mbar < s.m {
		mbar = s.m
	}
	if cap(s.tailBuf) < s.m {
		s.tailBuf = make([]int, s.m)
	}
	rounds := 0
	// sorted is the prefix of chi selectTop last settled. It is in stable
	// descending-γ order, except that a round that split it leaves the
	// guess chi[:mbar] unsorted until the round fails.
	sorted := 0
	for {
		rounds++
		if mbar >= len(chi) {
			// Every selectable candidate is in the guess; the result is
			// trivially optimal. chi lists exactly base's true entries, so
			// it doubles as the reach-marking id list.
			return s.solveScored(tab, scores, base, chi), rounds
		}
		split := false
		if need := mbar + s.m; need > sorted {
			if need > len(chi) {
				need = len(chi)
			}
			selectTop(chi, scores.gamma, need)
			// The round reads the guess only as a set and the lookahead
			// in order, so order the prefix only that far; a failed round
			// completes the sort before the next selectTop reorders chi.
			splitTail(chi[:need], scores.gamma, mbar, s.tailBuf)
			sorted, split = need, true
		}
		// allowedBuf stays all-false between rounds and calls: only the
		// guessed prefix is marked, and unmarked again below, so a guess
		// round costs O(m̄) rather than an O(ε) buffer clear.
		if cap(s.allowedBuf) < n {
			s.allowedBuf = make([]bool, n)
		}
		allowed := s.allowedBuf[:n]
		for _, id := range chi[:mbar] {
			allowed[id] = true
		}
		res := s.solveScored(tab, scores, allowed, chi[:mbar])
		for _, id := range chi[:mbar] {
			allowed[id] = false
		}
		if s.verified(res, scores, chi, mbar) {
			return res, rounds
		}
		if split {
			sortIDsByGamma(chi[:mbar], scores.gamma)
		}
		mbar *= 2
	}
}

// splitTail moves the last len(ids)−keep entries of ids' stable
// descending-γ order to ids[keep:], in that order, and leaves the others
// in ids[:keep] in their current relative order. Every entry kept comes
// before every entry moved in that order, and entries of equal γ keep
// their relative order across the split, so a stable sort of ids[:keep]
// afterwards leaves ids exactly as sortIDsByGamma(ids) would. tail is
// scratch with room for the moved entries. O(len(ids)·(len(ids)−keep)),
// and allocation-free.
//
//tsexplain:hotpath
func splitTail(ids []int, gamma []float64, keep int, tail []int) {
	k := len(ids) - keep
	if k <= 0 {
		return
	}
	tail = tail[:k]
	// Scan in order, keeping in tail the positions of the k last entries
	// seen so far, last first. A later entry of equal γ comes after an
	// earlier one, so it displaces on ≤.
	n := 0
	for p, id := range ids {
		g := gamma[id]
		if n == k {
			if g > gamma[ids[tail[k-1]]] {
				continue
			}
		} else {
			n++
		}
		j := n - 1
		for ; j > 0 && g <= gamma[ids[tail[j-1]]]; j-- {
			tail[j] = tail[j-1]
		}
		tail[j] = p
	}
	// Candidate ids are ≥ 0: mark the moved slots, compact the rest in
	// order, and put the moved entries behind them, last entry last.
	for j, p := range tail {
		tail[j], ids[p] = ids[p], -1
	}
	w := 0
	for _, id := range ids {
		if id >= 0 {
			ids[w] = id
			w++
		}
	}
	for j, id := range tail {
		ids[len(ids)-1-j] = id
	}
}

// sortIDsByGamma stably sorts ids by descending gamma[id] with an
// insertion sort. It allocates nothing, and yields the permutation any
// stable sort under the same comparison yields, sort.SliceStable's
// included, as long as no γ is NaN. The prefix it sorts is the guess plus
// its lookahead (m̄ + m ids), so the quadratic worst case stays small.
//
//tsexplain:hotpath
func sortIDsByGamma(ids []int, gamma []float64) {
	for i := 1; i < len(ids); i++ {
		id := ids[i]
		g := gamma[id]
		j := i
		for ; j > 0 && g > gamma[ids[j-1]]; j-- {
			ids[j] = ids[j-1]
		}
		ids[j] = id
	}
}

// selectTop partially partitions ids so the k entries with the highest
// gamma occupy ids[:k] (in arbitrary order), via iterative quickselect
// with median-of-three pivoting. O(len(ids)) expected.
//
//tsexplain:hotpath
func selectTop(ids []int, gamma []float64, k int) {
	lo, hi := 0, len(ids)
	for hi-lo > 1 && k > lo && k < hi {
		// Median-of-three pivot on gamma values.
		mid := lo + (hi-lo)/2
		a, b, c := gamma[ids[lo]], gamma[ids[mid]], gamma[ids[hi-1]]
		pv := b
		switch {
		case (a >= b) == (a <= c):
			pv = a
		case (c >= a) == (c <= b):
			pv = c
		}
		// Partition: entries with gamma > pv first, == pv middle, < pv last.
		i, j, eq := lo, hi-1, lo
		for i <= j {
			g := gamma[ids[i]]
			switch {
			case g > pv:
				ids[i], ids[eq] = ids[eq], ids[i]
				i++
				eq++
			case g < pv:
				ids[i], ids[j] = ids[j], ids[i]
				j--
			default:
				i++
			}
		}
		// [lo, eq) greater, [eq, i) equal, [i, hi) less.
		switch {
		case k <= eq:
			hi = eq
		case k < i:
			return // boundary falls inside the equal block
		default:
			lo = i
		}
	}
}

// verified checks the sufficient condition of Eq. 12: for every
// 0 ≤ m' < m,
//
//	Best[m] ≥ Best[m'] + Σ_{1 ≤ j ≤ m−m'} γ(E_{r_{m̄+j}}),
//
// i.e. even if the remaining m−m' picks all came from beyond the guessed
// prefix at the highest conceivable scores, they could not beat the
// current solution.
//
//tsexplain:hotpath
func (s *Solver) verified(res Result, scores segmentScores, chi []int, mbar int) bool {
	for mp := 0; mp < s.m; mp++ {
		bound := res.Best[mp]
		for j := 1; j <= s.m-mp; j++ {
			if idx := mbar + j - 1; idx < len(chi) {
				bound += scores.gamma[chi[idx]]
			}
		}
		if res.Best[s.m] < bound-1e-12 {
			return false
		}
	}
	return true
}
