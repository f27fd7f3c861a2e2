package cascading

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func TestSelectTop(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(200)
		gamma := make([]float64, n)
		for i := range gamma {
			gamma[i] = float64(rng.Intn(20)) // ties on purpose
		}
		ids := rng.Perm(n)
		k := 1 + rng.Intn(n)
		selectTop(ids, gamma, k)

		// The k-th largest value overall.
		sorted := append([]float64(nil), gamma...)
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
		kth := sorted[k-1]

		// Every entry in the prefix must be ≥ kth, every entry after ≤ kth.
		for i := 0; i < k; i++ {
			if gamma[ids[i]] < kth {
				t.Fatalf("trial %d: prefix[%d] = %g below k-th value %g", trial, i, gamma[ids[i]], kth)
			}
		}
		for i := k; i < n; i++ {
			if gamma[ids[i]] > kth {
				t.Fatalf("trial %d: suffix[%d] = %g above k-th value %g", trial, i, gamma[ids[i]], kth)
			}
		}
		// Still a permutation.
		seen := make([]bool, n)
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("trial %d: duplicate id %d", trial, id)
			}
			seen[id] = true
		}
	}
}

func TestSelectTopEdgeCases(t *testing.T) {
	// k = len and k = 0 must not panic or reorder invalidly.
	gamma := []float64{3, 1, 2}
	ids := []int{0, 1, 2}
	selectTop(ids, gamma, 3)
	selectTop(ids, gamma, 0)
	selectTop([]int{}, nil, 0)
	selectTop([]int{0}, []float64{5}, 1)
}

// TestSplitTailMatchesStableSort: splitTail must put exactly the last
// entries of the stable descending-γ order behind the kept ones, in that
// order, leave the kept ones in their relative order, and a stable sort
// of the kept part must then reproduce the full stable sort — ties
// included.
func TestSplitTailMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	tail := make([]int, 64)
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(40)
		gamma := make([]float64, 2*n)
		for i := range gamma {
			gamma[i] = float64(rng.Intn(6)) // ties on purpose
		}
		ids := rng.Perm(2 * n)[:n]
		keep := rng.Intn(n + 1)
		want := append([]int(nil), ids...)
		sort.SliceStable(want, func(i, j int) bool { return gamma[want[i]] > gamma[want[j]] })

		got := append([]int(nil), ids...)
		splitTail(got, gamma, keep, tail)
		for i := keep; i < n; i++ {
			if got[i] != want[i] {
				t.Fatalf("trial %d keep %d: tail %v, want %v", trial, keep, got[keep:], want[keep:])
			}
		}
		kept := map[int]bool{}
		for _, id := range got[:keep] {
			kept[id] = true
		}
		var order []int
		for _, id := range ids {
			if kept[id] {
				order = append(order, id)
			}
		}
		if fmt.Sprint(order) != fmt.Sprint(got[:keep]) {
			t.Fatalf("trial %d keep %d: kept %v, want relative order %v", trial, keep, got[:keep], order)
		}
		sortIDsByGamma(got[:keep], gamma)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d keep %d: split then sort %v, want %v", trial, keep, got, want)
		}
	}
}
