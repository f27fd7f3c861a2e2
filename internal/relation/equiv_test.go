package relation_test

// Dataset-scale equivalence: the columnar integer-keyed kernel and the
// naive row-by-row group-by must produce identical groups and identical
// series on the synth corpus and the liquor dataset, for every explain-by
// subset the engine enumerates.

import (
	"testing"

	"repro/internal/datasets"
	"repro/internal/relation"
	"repro/internal/synth"
)

func checkKernelEquivalence(t *testing.T, name string, r *relation.Relation, dims []int) {
	t.Helper()
	naive := relation.NaiveGroupBy(r, dims, 0)
	col := relation.GroupBySeriesColumnar(r, dims, 0)
	if got, want := col.NumGroups(), len(naive); got != want {
		t.Fatalf("%s dims %v: columnar %d groups, naive %d", name, dims, got, want)
	}
	for g := 0; g < col.NumGroups(); g++ {
		ids := col.GroupIDs(g)
		want, ok := naive[relation.TupleKey(ids)]
		if !ok {
			t.Fatalf("%s dims %v: columnar group %v not found by the naive group-by", name, dims, ids)
		}
		got := col.Series(g)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s dims %v group %v t=%d: columnar %+v, naive %+v",
					name, dims, ids, i, got[i], want[i])
			}
		}
	}
}

// explainBySubsets enumerates the non-empty dimension subsets of size
// ≤ maxOrder, mirroring the engine's candidate enumeration.
func explainBySubsets(numDims, maxOrder int) [][]int {
	var out [][]int
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		if len(cur) > 0 {
			out = append(out, append([]int(nil), cur...))
		}
		if len(cur) == maxOrder {
			return
		}
		for i := start; i < numDims; i++ {
			rec(i+1, append(cur, i))
		}
	}
	rec(0, nil)
	return out
}

func TestKernelEquivalenceSynth(t *testing.T) {
	d, err := synth.Generate(synth.Params{Seed: 11, SNRdB: 30, N: 200})
	if err != nil {
		t.Fatal(err)
	}
	for _, dims := range explainBySubsets(d.Rel.NumDims(), 3) {
		checkKernelEquivalence(t, "synth", d.Rel, dims)
	}
}

func TestKernelEquivalenceLiquor(t *testing.T) {
	if testing.Short() {
		t.Skip("liquor dataset generation is slow")
	}
	d := datasets.Liquor()
	for _, dims := range explainBySubsets(d.Rel.NumDims(), d.MaxOrder) {
		checkKernelEquivalence(t, "liquor", d.Rel, dims)
	}
}
