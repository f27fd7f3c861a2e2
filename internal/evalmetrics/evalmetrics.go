// Package evalmetrics implements the evaluation measures of Sections 4.2.2
// and 7.3: the random schemes and competition ranks of the
// ground-truth-rank protocol that compares variance designs, and the
// normalized segmentation edit distance ("distance percent") that
// compares segmentation outputs against ground truth.
package evalmetrics

import (
	"math/rand"
	"sort"
)

// DistancePercent computes the paper's distance percent (Section 7.3)
// between a produced segmentation and the ground truth. Both arguments
// are full cut lists including the endpoints (the segment.Scheme.Cuts
// shape); n is the series length.
//
// The interior cuts are aligned by a monotone minimum-cost matching
// (plain in-order pairing when both sides have the same K, which is how
// the experiments run); each matched pair costs |c − ĉ| and each
// unmatched cut costs n (the worst possible displacement). The total is
// normalized by K and n and scaled to percent:
//
//	100 · cost / (max(K_truth, K_output) · n)
func DistancePercent(got, truth []int, n int) float64 {
	g := interior(got)
	tr := interior(truth)
	segs := len(tr) + 1
	if len(g)+1 > segs {
		segs = len(g) + 1
	}
	if segs <= 1 || n <= 0 {
		if len(g) == 0 && len(tr) == 0 {
			return 0
		}
	}
	cost := alignCost(g, tr, float64(n))
	denom := float64(segs) * float64(n)
	if denom == 0 {
		return 0
	}
	return 100 * cost / denom
}

// interior strips the two endpoint entries from a full cut list.
func interior(cuts []int) []int {
	if len(cuts) <= 2 {
		return nil
	}
	out := make([]int, len(cuts)-2)
	copy(out, cuts[1:len(cuts)-1])
	sort.Ints(out)
	return out
}

// alignCost computes the minimum-cost monotone alignment between two
// sorted cut lists, with per-pair cost |a−b| and gap cost for unmatched
// cuts.
func alignCost(a, b []int, gap float64) float64 {
	la, lb := len(a), len(b)
	// dp[i][j]: cost of aligning a[:i] with b[:j].
	dp := make([][]float64, la+1)
	for i := range dp {
		dp[i] = make([]float64, lb+1)
	}
	for i := 1; i <= la; i++ {
		dp[i][0] = float64(i) * gap
	}
	for j := 1; j <= lb; j++ {
		dp[0][j] = float64(j) * gap
	}
	for i := 1; i <= la; i++ {
		for j := 1; j <= lb; j++ {
			match := dp[i-1][j-1] + absf(float64(a[i-1]-b[j-1]))
			skipA := dp[i-1][j] + gap
			skipB := dp[i][j-1] + gap
			dp[i][j] = minf(match, minf(skipA, skipB))
		}
	}
	return dp[la][lb]
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// RandomScheme samples a uniformly random K-segmentation of an n-point
// series: K−1 distinct interior cut positions plus the endpoints.
// It panics when K−1 exceeds the number of interior positions.
func RandomScheme(rng *rand.Rand, n, k int) []int {
	if k-1 > n-2 {
		panic("evalmetrics: K too large for series length")
	}
	perm := rng.Perm(n - 2)
	cuts := make([]int, 0, k+1)
	cuts = append(cuts, 0)
	for _, p := range perm[:k-1] {
		cuts = append(cuts, p+1)
	}
	cuts = append(cuts, n-1)
	sort.Ints(cuts)
	return cuts
}

// CompetitionRanks converts raw scores (lower is better) into standard
// competition ranks ("1224"): ties share the smallest rank of their
// group, so when every metric finds the ground truth optimal they all
// rank 1st, matching the Figure 6 narrative at SNR = 50.
func CompetitionRanks(scores []float64) []float64 {
	type idxScore struct {
		idx int
		v   float64
	}
	s := make([]idxScore, len(scores))
	for i, v := range scores {
		s[i] = idxScore{i, v}
	}
	sort.SliceStable(s, func(i, j int) bool { return s[i].v < s[j].v })
	out := make([]float64, len(scores))
	i := 0
	for i < len(s) {
		j := i
		for j+1 < len(s) && s[j+1].v == s[i].v {
			j++
		}
		// Positions i..j share the rank of the first of the group.
		for k := i; k <= j; k++ {
			out[s[k].idx] = float64(i + 1)
		}
		i = j + 1
	}
	return out
}
