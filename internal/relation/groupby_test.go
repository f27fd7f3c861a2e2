package relation

import (
	"encoding/binary"
	"testing"
)

func buildGroupByRel(t *testing.T) *Relation {
	t.Helper()
	b := NewBuilder("g", "d", []string{"s", "c"}, []string{"m"})
	rows := []struct {
		d, s, c string
		m       float64
	}{
		{"1", "a", "x", 1}, {"1", "b", "x", 2}, {"1", "a", "y", 4},
		{"2", "a", "x", 8}, {"2", "b", "y", 16}, {"2", "b", "y", 32},
		{"3", "a", "y", 64}, {"3", "b", "x", 128},
	}
	for _, r := range rows {
		if err := b.Append(r.d, []string{r.s, r.c}, []float64{r.m}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// NaiveGroupBy is the reference the columnar kernel is checked against:
// row by row, every distinct dictionary-id tuple of dims gets its own
// per-timestamp (sum, count) series of measure m, keyed by TupleKey. It is
// exported for the dataset-scale checks in package relation_test.
func NaiveGroupBy(r *Relation, dims []int, m int) map[string][]SumCount {
	out := make(map[string][]SumCount)
	ids := make([]uint32, len(dims))
	var key []byte
	for row := 0; row < r.NumRows(); row++ {
		for i, d := range dims {
			ids[i] = r.DimID(d, row)
		}
		key = appendTupleKey(key[:0], ids)
		sc, ok := out[string(key)]
		if !ok {
			sc = make([]SumCount, r.NumTimestamps())
			out[string(key)] = sc
		}
		t := r.TimeIndex(row)
		sc[t].Sum += r.MeasureValue(m, row)
		sc[t].Count++
	}
	return out
}

// TupleKey is NaiveGroupBy's key of a dictionary-id tuple.
func TupleKey(ids []uint32) string { return string(appendTupleKey(nil, ids)) }

func appendTupleKey(buf []byte, ids []uint32) []byte {
	for _, id := range ids {
		buf = binary.LittleEndian.AppendUint32(buf, id)
	}
	return buf
}

func TestColumnarGroupByMatchesNaive(t *testing.T) {
	r := buildGroupByRel(t)
	for _, dims := range [][]int{{0}, {1}, {0, 1}} {
		naive := NaiveGroupBy(r, dims, 0)
		col := r.GroupBySeriesColumnar(dims, 0)
		if got, want := col.NumGroups(), len(naive); got != want {
			t.Fatalf("dims %v: %d groups, want %d", dims, got, want)
		}
		for g := 0; g < col.NumGroups(); g++ {
			want, ok := naive[TupleKey(col.GroupIDs(g))]
			if !ok {
				t.Fatalf("dims %v: columnar group %v missing from the naive group-by", dims, col.GroupIDs(g))
			}
			series := col.Series(g)
			for i := range want {
				if series[i] != want[i] {
					t.Fatalf("dims %v group %v t=%d: %+v, want %+v",
						dims, col.GroupIDs(g), i, series[i], want[i])
				}
			}
		}
	}
}

func TestColumnarGroupByOrdering(t *testing.T) {
	r := buildGroupByRel(t)
	col := r.GroupBySeriesColumnar([]int{0, 1}, 0)
	for g := 1; g < col.NumGroups(); g++ {
		prev, cur := col.GroupIDs(g-1), col.GroupIDs(g)
		less := false
		for i := range prev {
			if prev[i] != cur[i] {
				less = prev[i] < cur[i]
				break
			}
		}
		if !less {
			t.Fatalf("groups %d/%d out of order: %v !< %v", g-1, g, prev, cur)
		}
	}
}

func TestGroupByPlanSharedArena(t *testing.T) {
	r := buildGroupByRel(t)
	subsets := [][]int{{0}, {1}, {0, 1}}
	plans := make([]*GroupByPlan, len(subsets))
	total := 0
	for i, dims := range subsets {
		plans[i] = r.PlanGroupBy(dims, 0)
		total += plans[i].NumGroups()
	}
	T := r.NumTimestamps()
	arena := make([]SumCount, total*T)
	off := 0
	for i, p := range plans {
		gs := p.Fill(arena[off : off+p.NumGroups()*T])
		off += p.NumGroups() * T
		want := r.GroupBySeriesColumnar(subsets[i], 0)
		if gs.NumGroups() != want.NumGroups() {
			t.Fatalf("subset %v: %d groups via shared arena, want %d",
				subsets[i], gs.NumGroups(), want.NumGroups())
		}
		for g := 0; g < gs.NumGroups(); g++ {
			for tt := 0; tt < T; tt++ {
				if gs.Series(g)[tt] != want.Series(g)[tt] {
					t.Fatalf("subset %v group %d t=%d mismatch", subsets[i], g, tt)
				}
			}
		}
	}
}

// TestGroupByFallbackPath forces the byte-string keyed fallback and checks
// it agrees with the packed path on the same data.
func TestGroupByFallbackPath(t *testing.T) {
	r := buildGroupByRel(t)
	dims := []int{0, 1}
	packed := r.GroupBySeriesColumnar(dims, 0)

	p := r.PlanGroupBy(dims, 0)
	if !p.packed {
		t.Fatal("small relation should plan packed")
	}
	fp := r.planGroupBy(dims, 0, true)
	if fp.packed {
		t.Fatal("forced fallback plan is still packed")
	}
	got := fp.Fill(make([]SumCount, fp.NumGroups()*r.NumTimestamps()))

	if got.NumGroups() != packed.NumGroups() {
		t.Fatalf("fallback %d groups, packed %d", got.NumGroups(), packed.NumGroups())
	}
	for g := 0; g < got.NumGroups(); g++ {
		for tt := 0; tt < got.T; tt++ {
			if got.Series(g)[tt] != packed.Series(g)[tt] {
				t.Fatalf("group %d t=%d: fallback %+v, packed %+v",
					g, tt, got.Series(g)[tt], packed.Series(g)[tt])
			}
		}
	}
}

// TestGroupByEmptyDims: no grouped dimensions degenerates to the single
// grand-total group, the naive group-by's one empty-tuple group.
func TestGroupByEmptyDims(t *testing.T) {
	r := buildGroupByRel(t)
	naive := NaiveGroupBy(r, nil, 0)
	col := r.GroupBySeriesColumnar(nil, 0)
	if len(naive) != 1 || col.NumGroups() != 1 {
		t.Fatalf("grand total: naive %d groups, columnar %d, want 1 and 1",
			len(naive), col.NumGroups())
	}
	if got := col.GroupIDs(0); len(got) != 0 {
		t.Fatalf("grand-total group ids = %v, want empty", got)
	}
	want := naive[TupleKey(nil)]
	for i := range want {
		if col.Series(0)[i] != want[i] {
			t.Fatalf("grand total t=%d: %+v, want %+v", i, col.Series(0)[i], want[i])
		}
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[int]uint{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 256: 8, 257: 9, 65536: 16}
	for card, want := range cases {
		if got := bitsFor(card); got != want {
			t.Errorf("bitsFor(%d) = %d, want %d", card, got, want)
		}
	}
}

func TestPackConjRoundTrip(t *testing.T) {
	cases := []Conjunction{
		nil,
		{{Dim: 0, Value: 0}},
		{{Dim: 15, Value: 65535}},
		{{Dim: 0, Value: 12}, {Dim: 3, Value: 900}},
		{{Dim: 1, Value: 1}, {Dim: 2, Value: 65535}, {Dim: 15, Value: 0}},
	}
	for _, c := range cases {
		k, ok := PackConj(c)
		if !ok {
			t.Fatalf("PackConj(%v): not packable", c)
		}
		got := k.Unpack()
		if got.Key() != c.Key() {
			t.Errorf("round trip %v -> %v", c, got)
		}
		if k.Order() != len(c) {
			t.Errorf("Order(%v) = %d, want %d", c, k.Order(), len(c))
		}
	}
	// Out-of-range inputs must refuse to pack rather than corrupt.
	for _, c := range []Conjunction{
		{{Dim: 16, Value: 0}},
		{{Dim: 0, Value: 65536}},
		{{Dim: 0, Value: 0}, {Dim: 1, Value: 0}, {Dim: 2, Value: 0}, {Dim: 3, Value: 0}},
	} {
		if _, ok := PackConj(c); ok {
			t.Errorf("PackConj(%v): want not-packable", c)
		}
	}
}

// FuzzPackConj checks that every packable conjunction survives a
// pack/unpack round trip and that distinct conjunctions get distinct keys.
func FuzzPackConj(f *testing.F) {
	f.Add(uint8(1), uint16(0), uint8(2), uint16(77), uint8(15), uint16(65535), uint8(3))
	f.Add(uint8(0), uint16(1), uint8(0), uint16(1), uint8(0), uint16(1), uint8(1))
	f.Add(uint8(5), uint16(500), uint8(9), uint16(9), uint8(12), uint16(3), uint8(2))
	f.Fuzz(func(t *testing.T, d0 uint8, v0 uint16, d1 uint8, v1 uint16, d2 uint8, v2 uint16, n uint8) {
		dims := []int{int(d0 % 16), int(d1 % 16), int(d2 % 16)}
		vals := []uint32{uint32(v0), uint32(v1), uint32(v2)}
		order := int(n % 4)
		var c Conjunction
		seen := map[int]bool{}
		for i := 0; i < order; i++ {
			if seen[dims[i]] {
				continue // conjunctions constrain each dimension once
			}
			seen[dims[i]] = true
			c = append(c, Pred{Dim: dims[i], Value: vals[i]})
		}
		c.normalize()
		k, ok := PackConj(c)
		if !ok {
			t.Fatalf("PackConj(%v): in-range conjunction not packable", c)
		}
		got := k.Unpack()
		if got.Key() != c.Key() {
			t.Fatalf("round trip %v -> %v (key %x)", c, got, uint64(k))
		}
		k2, _ := PackConj(got)
		if k2 != k {
			t.Fatalf("re-pack %v: %x != %x", got, uint64(k2), uint64(k))
		}
	})
}
