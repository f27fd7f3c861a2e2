package explain

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/datasets"
	"repro/internal/relation"
)

// streamRows generates a small two-dimensional workload whose delta
// introduces a brand-new value on each dimension.
func streamRows(days int) (timeVals []string, dims [][]string, measures [][]float64) {
	for day := 0; day < days; day++ {
		label := fmt.Sprintf("d%03d", day)
		for _, a := range []string{"x", "y"} {
			timeVals = append(timeVals, label)
			dims = append(dims, []string{a, fmt.Sprintf("g%d", day%2)})
			measures = append(measures, []float64{float64(day*7 + len(a)*3)})
		}
		if day >= 8 {
			// z (and its pairing with the new group g9) only exists late.
			timeVals = append(timeVals, label)
			dims = append(dims, []string{"z", "g9"})
			measures = append(measures, []float64{float64(100 + day)})
		}
	}
	return
}

func buildStream(t *testing.T, timeVals []string, dims [][]string, measures [][]float64) *relation.Relation {
	t.Helper()
	b := relation.NewBuilder("s", "day", []string{"a", "g"}, []string{"v"})
	for i := range timeVals {
		if err := b.Append(timeVals[i], dims[i], measures[i]); err != nil {
			t.Fatal(err)
		}
	}
	r, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// sameUniverse checks the streamed universe against a fresh build over
// the same relation: identical candidate sets (matched by conjunction),
// bit-identical series and totals, and the same drill-down adjacency at
// every node, with every child list strictly ascending in both.
func sameUniverse(t testing.TB, ctx string, got, want *Universe) {
	t.Helper()
	if got.NumCandidates() != want.NumCandidates() {
		t.Fatalf("%s: %d candidates, want %d", ctx, got.NumCandidates(), want.NumCandidates())
	}
	if got.NumTimestamps() != want.NumTimestamps() {
		t.Fatalf("%s: %d timestamps, want %d", ctx, got.NumTimestamps(), want.NumTimestamps())
	}
	gt, wt := got.TotalValues(), want.TotalValues()
	for i := range wt {
		if !sameFloat(gt[i], wt[i]) {
			t.Fatalf("%s: total[%d] = %v, want %v", ctx, i, gt[i], wt[i])
		}
	}
	rel := want.Relation()
	for id := 0; id < want.NumCandidates(); id++ {
		wc := want.Candidate(id)
		gid, ok := got.Lookup(wc.Conj)
		if !ok {
			t.Fatalf("%s: candidate %s missing", ctx, wc.Conj.String(rel))
		}
		gv, wv := got.CandidateValues(gid), want.CandidateValues(id)
		for i := range wv {
			if !sameFloat(gv[i], wv[i]) {
				t.Fatalf("%s: %s value[%d] = %v, want %v", ctx, wc.Conj.String(rel), i, gv[i], wv[i])
			}
		}
		// Ancestor sets must agree through the conjunction mapping.
		if g, w := conjKeys(got, got.AncestorsOf(gid)), conjKeys(want, want.AncestorsOf(id)); !slices.Equal(g, w) {
			t.Fatalf("%s: %s ancestors %v, want %v", ctx, wc.Conj.String(rel), g, w)
		}
	}
	childrenAscend(t, ctx+" (streamed)", got)
	childrenAscend(t, ctx+" (fresh)", want)
	// Every node's drill-down per dimension must expose the same children.
	for id := -1; id < want.NumCandidates(); id++ {
		gid, node := -1, "root"
		if id >= 0 {
			gid, _ = got.Lookup(want.Candidate(id).Conj)
			node = want.Candidate(id).Conj.String(rel)
		}
		for _, dim := range want.ExplainBy() {
			g, w := conjKeys(got, got.ChildrenOf(gid, dim)), conjKeys(want, want.ChildrenOf(id, dim))
			if !slices.Equal(g, w) {
				t.Fatalf("%s: %s children over dim %d = %v, want %v", ctx, node, dim, g, w)
			}
		}
	}
}

// sameFloat reports whether a and b are the same value, NaN included.
func sameFloat(a, b float64) bool { return a == b || a != a && b != b }

// conjKeys returns the sorted conjunction keys of the candidates ids.
func conjKeys(u *Universe, ids []uint32) []string {
	keys := make([]string, len(ids))
	for i, id := range ids {
		keys[i] = u.Candidate(int(id)).Conj.Key()
	}
	slices.Sort(keys)
	return keys
}

// childrenAscend asserts that every child list of u strictly ascends, the
// order the Cascading Analysts DP and its extraction rely on.
func childrenAscend(t testing.TB, ctx string, u *Universe) {
	t.Helper()
	for id := -1; id < u.NumCandidates(); id++ {
		for _, dim := range u.ExplainBy() {
			kids := u.ChildrenOf(id, dim)
			for i := 1; i < len(kids); i++ {
				if kids[i] <= kids[i-1] {
					t.Fatalf("%s: children of node %d over dim %d not strictly ascending: %v", ctx, id, dim, kids)
				}
			}
		}
	}
}

func universeConfig() Config {
	return Config{Measure: "v", Agg: relation.Sum, MaxOrder: 2, Streaming: true}
}

// rowSet is an input's rows in time order, row-major in the shape
// Relation.AppendRows consumes, with the schema a Builder needs.
type rowSet struct {
	dimNames, measNames []string
	timeVals            []string
	dims                [][]string
	measures            [][]float64
	// declare, when non-nil, declares the input's taxonomy on every
	// relation built over its rows.
	declare func(*relation.Relation) error
}

// build returns a relation over the first n rows.
func (rs rowSet) build(t testing.TB, n int) *relation.Relation {
	t.Helper()
	b := relation.NewBuilder("rows", "day", rs.dimNames, rs.measNames)
	for i := 0; i < n; i++ {
		if err := b.Append(rs.timeVals[i], rs.dims[i], rs.measures[i]); err != nil {
			t.Fatal(err)
		}
	}
	r, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if rs.declare != nil {
		if err := rs.declare(r); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// growMatchesFresh builds a streaming universe over the first cuts[0]
// rows, smooths it when smooth > 1, then appends the rows up to each later
// cut through Relation.AppendRows and Universe.Append. After each append
// it checks the universe against a one-shot NewUniverse over the same
// rows. Candidate IDs must survive every append.
func growMatchesFresh(t testing.TB, rs rowSet, cfg Config, smooth int, cuts []int) {
	t.Helper()
	cfg.Streaming = true
	streamed := rs.build(t, cuts[0])
	u, err := NewUniverse(streamed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if smooth > 1 {
		u.Smooth(smooth)
	}
	idOf := map[string]int{}
	for _, hi := range cuts[1:] {
		for id := 0; id < u.NumCandidates(); id++ {
			idOf[u.Candidate(id).Conj.Key()] = id
		}
		if from := streamed.NumRows(); hi > from {
			if err := streamed.AppendRows(rs.timeVals[from:hi], rs.dims[from:hi], rs.measures[from:hi]); err != nil {
				t.Fatal(err)
			}
		}
		info, err := u.Append()
		if err != nil {
			t.Fatal(err)
		}
		if info.NewTimestamps != streamed.NumTimestamps() {
			t.Fatalf("info.NewTimestamps = %d, want %d", info.NewTimestamps, streamed.NumTimestamps())
		}
		for key, id := range idOf {
			if u.Candidate(id).Conj.Key() != key {
				t.Fatalf("after append to row %d: candidate %d changed conjunction", hi, id)
			}
		}
		freshCfg := cfg
		freshCfg.Streaming = false
		fresh, err := NewUniverse(rs.build(t, hi), freshCfg)
		if err != nil {
			t.Fatal(err)
		}
		if smooth > 1 {
			fresh.Smooth(smooth)
		}
		sameUniverse(t, fmt.Sprintf("rows %d", hi), u, fresh)
	}
}

// streamRowSet is streamRows(days) as a rowSet.
func streamRowSet(days int) rowSet {
	timeVals, dims, measures := streamRows(days)
	return rowSet{dimNames: []string{"a", "g"}, measNames: []string{"v"}, timeVals: timeVals, dims: dims, measures: measures}
}

// taxonomyRowSet replays the taxonomy dataset's rows in time order at full
// width (its derived price bin becomes a plain column), with the dataset's
// declared hierarchy.
func taxonomyRowSet() rowSet {
	r := datasets.Taxonomy().Rel
	timeVals, dims, measures := r.RowBatch(r.RowsByTime(), 0, r.NumTimestamps())
	return rowSet{
		dimNames: r.DimNames(), measNames: r.MeasureNames(),
		timeVals: timeVals, dims: dims, measures: measures,
		declare: func(r *relation.Relation) error {
			return r.DeclareHierarchy("cat>subcat>leaf", []string{"cat", "subcat", "leaf"})
		},
	}
}

func TestUniverseAppendMatchesFresh(t *testing.T) {
	// Stream: start with 6 days, then append the rest in three uneven
	// batches (one of which introduces z/g9).
	stream := streamRowSet(12)
	dayCut := func(day int) int {
		for i, tv := range stream.timeVals {
			if tv >= fmt.Sprintf("d%03d", day) {
				return i
			}
		}
		return len(stream.timeVals)
	}
	// Taxonomy: start mid-way through the first timestamp, so later
	// batches bring new leaves, subcategories and categories — and with
	// them taxonomy roll-up edges — and revise the last timestamp.
	tax := taxonomyRowSet()
	taxCfg := datasets.Taxonomy()
	inputs := []struct {
		name string
		rows rowSet
		cfg  Config
		cuts []int
	}{
		{"stream", stream, universeConfig(), []int{dayCut(6), dayCut(8), dayCut(10), dayCut(12)}},
		{"taxonomy", tax, Config{Measure: taxCfg.Measure, Agg: taxCfg.Agg, ExplainBy: taxCfg.ExplainBy, MaxOrder: taxCfg.MaxOrder},
			[]int{20, 150, 400, len(tax.timeVals)}},
	}
	for _, smooth := range []int{0, 5} {
		t.Run(fmt.Sprintf("smooth=%d", smooth), func(t *testing.T) {
			for _, in := range inputs {
				t.Run(in.name, func(t *testing.T) {
					growMatchesFresh(t, in.rows, in.cfg, smooth, in.cuts)
				})
			}
		})
	}
}

func TestUniverseAppendRequiresStreaming(t *testing.T) {
	timeVals, dims, measures := streamRows(4)
	rel := buildStream(t, timeVals, dims, measures)
	u, err := NewUniverse(rel, Config{Measure: "v", Agg: relation.Sum, MaxOrder: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.Append(); err == nil {
		t.Error("Append on a non-streaming universe: want error")
	}
}

// fuzzRows decodes a fuzz input into a small relation's rows. A four-byte
// header gives the dimension count (1–3), the aggregate, the row the
// stream starts after and a second split (0: append the rest in one
// batch). One record per row follows: a time step (odd steps advance the
// timestamp, up to 16 of them), one value byte per dimension (5 values
// each), and a measure kind and value byte — zero, integral, fractional or
// negative non-dyadic by kind. Splits may fall inside a timestamp, so a
// batch may revise the last label.
func fuzzRows(data []byte) (rs rowSet, agg relation.AggFunc, cuts []int, ok bool) {
	if len(data) < 4 {
		return rs, 0, nil, false
	}
	nDims := 1 + int(data[0])%3
	agg = []relation.AggFunc{relation.Sum, relation.Count, relation.Avg}[data[1]%3]
	rec := nDims + 3
	nRows := min((len(data)-4)/rec, 64)
	if nRows == 0 {
		return rs, 0, nil, false
	}
	for d := 0; d < nDims; d++ {
		rs.dimNames = append(rs.dimNames, fmt.Sprintf("d%d", d))
	}
	rs.measNames = []string{"m"}
	t := 0
	for i := 0; i < nRows; i++ {
		r := data[4+i*rec : 4+(i+1)*rec]
		if r[0]%2 == 1 && t < 15 {
			t++
		}
		rs.timeVals = append(rs.timeVals, fmt.Sprintf("t%02d", t))
		dims := make([]string, nDims)
		for d := range dims {
			dims[d] = fmt.Sprintf("v%d", r[1+d]%5)
		}
		rs.dims = append(rs.dims, dims)
		var v float64
		switch kind, b := r[1+nDims]%4, r[2+nDims]; kind {
		case 1:
			v = float64(int8(b))
		case 2:
			v = float64(int8(b)) / 8
		case 3:
			v = -float64(b) / 10
		}
		rs.measures = append(rs.measures, []float64{v})
	}
	first := 1 + int(data[2])%nRows
	cuts = []int{first}
	if data[3] != 0 {
		cuts = append(cuts, first+int(data[3])%(nRows-first+1))
	}
	return rs, agg, append(cuts, nRows), true
}

// streamSeed encodes streamRows(days) in fuzzRows' format with the given
// header bytes and measure kind.
func streamSeed(days int, agg, split, split2, kind byte) []byte {
	timeVals, dims, measures := streamRows(days)
	data := []byte{1, agg, split, split2}
	ids := []map[string]byte{{}, {}}
	for i := range timeVals {
		step := byte(0)
		if i > 0 && timeVals[i] != timeVals[i-1] {
			step = 1
		}
		data = append(data, step)
		for d, v := range dims[i] {
			id, ok := ids[d][v]
			if !ok {
				id = byte(len(ids[d]))
				ids[d][v] = id
			}
			data = append(data, id)
		}
		data = append(data, kind, byte(int8(measures[i][0])))
	}
	return data
}

// FuzzUniverseAppend streams a small fuzzed relation into a universe —
// built on a prefix of its rows, then grown by Relation.AppendRows and
// Universe.Append in one or two batches — and holds the result to a fresh
// build over all rows at every order threshold.
func FuzzUniverseAppend(f *testing.F) {
	f.Add(streamSeed(12, 0, 12, 0, 1))
	f.Add(streamSeed(12, 2, 15, 3, 2))
	f.Add(streamSeed(12, 1, 0, 200, 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, agg, cuts, ok := fuzzRows(data)
		if !ok {
			return
		}
		for order := 1; order <= 3; order++ {
			growMatchesFresh(t, rs, Config{Measure: "m", Agg: agg, MaxOrder: order}, 0, cuts)
		}
	})
}
