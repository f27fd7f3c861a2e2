package explain

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/relation"
)

// adversarialValues are float64s chosen to expose any reordering or
// shortcut in the scoring arithmetic: NaNs with payloads and either sign,
// signed zeros and infinities, subnormals, integers around 2^53 where
// float addition stops being exact, and ordinary magnitudes.
var adversarialValues = []float64{
	0, math.Copysign(0, -1),
	math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff0000000000abc | 1<<51),
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072009e-308,
	1 << 53, 1<<53 + 2, -(1 << 53), 1<<53 - 1, 1e308, -1e308,
	1, -1, 0.1, 3, 7.5,
}

// adversarialUniverse builds a universe over hand-made series directly —
// bypassing the relation so any (Sum, Count) pair is possible, including
// zero and negative counts under AVG.
func adversarialUniverse(rng *rand.Rand, agg relation.AggFunc, nCands, T int) *Universe {
	pick := func() float64 {
		if rng.Intn(4) == 0 {
			return rng.NormFloat64() * 1e3
		}
		return adversarialValues[rng.Intn(len(adversarialValues))]
	}
	series := func() []relation.SumCount {
		s := make([]relation.SumCount, T)
		for t := range s {
			s[t] = relation.SumCount{Sum: pick(), Count: pick()}
			if rng.Intn(3) == 0 {
				s[t].Count = 0 // AVG's empty-slice guard
			}
		}
		return s
	}
	// Flat candidates: no drill-down edges, each its own only ancestor.
	u := &Universe{agg: agg, total: series(), childrenFlat: make([][][]uint32, nCands+1), ancOff: []uint32{0}}
	for id := 0; id < nCands; id++ {
		u.cands = append(u.cands, &Candidate{ID: id, Series: series()})
		u.ancIDs = append(u.ancIDs, uint32(id))
		u.ancOff = append(u.ancOff, uint32(id+1))
	}
	return u
}

// checkScoreRow scores every segment of tab into a dense row and checks
// each listed candidate's γ bits against Score, and its pick-time τ from
// ScoreTable.Effect against Score's τ.
func checkScoreRow(t *testing.T, ctx string, u *Universe, tab *ScoreTable) {
	t.Helper()
	T := u.NumTimestamps()
	row := make([]float64, len(tab.IDs()))
	for c := 0; c < T; c++ {
		for tt := 0; tt < T; tt++ {
			tab.ScoreRow(c, tt, row)
			for k, id := range tab.IDs() {
				s := u.cands[id].Series
				wg, we := Score(u.agg, u.total[c], u.total[tt], s[c], s[tt])
				if e := tab.Effect(c, tt, k); math.Float64bits(row[k]) != math.Float64bits(wg) || e != we {
					t.Fatalf("%s id %d [%d,%d]: got (%v %#x, %v), want (%v %#x, %v)",
						ctx, id, c, tt, row[k], math.Float64bits(row[k]), e, wg, math.Float64bits(wg), we)
				}
			}
		}
	}
}

// TestScoreTableMatchesScoreBitForBit is the kernel's contract: for every
// aggregate, over adversarial inputs and every segment, ScoreTable.ScoreRow
// yields exactly Score's γ bits, and ScoreTable.Effect its τ.
func TestScoreTableMatchesScoreBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const nCands, T = 64, 9
	for _, agg := range []relation.AggFunc{relation.Sum, relation.Count, relation.Avg} {
		for trial := 0; trial < 60; trial++ {
			u := adversarialUniverse(rng, agg, nCands, T)
			var ids []int
			if trial%2 == 1 {
				ids = []int{}
				for id := 0; id < nCands; id++ {
					if rng.Intn(2) == 0 {
						ids = append(ids, id)
					}
				}
			}
			checkScoreRow(t, fmt.Sprintf("%v trial %d", agg, trial), u, NewScoreTable(u, ids))
		}
	}
}

// TestScoreTableScoreDoesNotAllocate pins the kernels' hot-path contract.
func TestScoreTableScoreDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, agg := range []relation.AggFunc{relation.Sum, relation.Count, relation.Avg} {
		u := adversarialUniverse(rng, agg, 128, 16)
		tab := NewScoreTable(u, nil)
		row := make([]float64, 128)
		if allocs := testing.AllocsPerRun(50, func() { tab.ScoreRow(2, 13, row) }); allocs != 0 {
			t.Errorf("%v: %v allocs per segment, want 0", agg, allocs)
		}
		if allocs := testing.AllocsPerRun(50, func() { tab.Effect(2, 13, 77) }); allocs != 0 {
			t.Errorf("%v: %v allocs per pick-time τ, want 0", agg, allocs)
		}
	}
}

// TestScoreTableColumnsAfterAppend: an append that registers new
// candidates leaves them unlisted — the column index maps them to −1 and
// every listed id to its column — and the refreshed table still scores
// bit-identically to Score.
func TestScoreTableColumnsAfterAppend(t *testing.T) {
	timeVals, dims, measures := streamRows(12)
	cut := len(timeVals)
	for i, tv := range timeVals {
		if tv >= "d006" {
			cut = i
			break
		}
	}
	rel := buildStream(t, timeVals[:cut], dims[:cut], measures[:cut])
	u, err := NewUniverse(rel, universeConfig())
	if err != nil {
		t.Fatal(err)
	}
	all := NewScoreTable(u, nil)
	some := NewScoreTable(u, []int{0, 2, 3})
	if err := rel.AppendRows(timeVals[cut:], dims[cut:], measures[cut:]); err != nil {
		t.Fatal(err)
	}
	info, err := u.Append()
	if err != nil {
		t.Fatal(err)
	}
	if info.NewCandidates == 0 {
		t.Fatal("the append registered no candidates")
	}
	for name, tab := range map[string]*ScoreTable{"all": all, "some": some} {
		tab.Refresh(info.ChangedFrom)
		for id := info.OldCandidates; id < u.NumCandidates(); id++ {
			if k := tab.Column(id); k != -1 {
				t.Errorf("%s: new candidate %d maps to column %d, want -1", name, id, k)
			}
		}
		for k, id := range tab.IDs() {
			if got := tab.Column(id); got != k {
				t.Errorf("%s: listed id %d maps to column %d, want %d", name, id, got, k)
			}
		}
		checkScoreRow(t, name, u, tab)
	}
}

// TestScoreTableLayout checks the kept components per aggregate, the
// membership views and column index, and that scoring writes exactly one
// entry per listed candidate.
func TestScoreTableLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		agg            relation.AggFunc
		hasSum, hasCnt bool
	}{
		{relation.Sum, true, false},
		{relation.Count, false, true},
		{relation.Avg, true, true},
	} {
		u := adversarialUniverse(rng, tc.agg, 10, 4)
		tab := NewScoreTable(u, []int{1, 4, 7})
		if (tab.sum != nil) != tc.hasSum || (tab.count != nil) != tc.hasCnt {
			t.Errorf("%v: sum kept %v, count kept %v", tc.agg, tab.sum != nil, tab.count != nil)
		}
		rows := int64(8 * 3 * 4) // one component: 3 ids × 4 positions
		if tc.hasSum && tc.hasCnt {
			rows *= 2
		}
		if got := tab.Bytes(); got < rows {
			t.Errorf("%v: Bytes %d, below its %d-byte value rows", tc.agg, got, rows)
		}
		for k, id := range tab.IDs() {
			for tt := 0; tt < 4; tt++ {
				want := u.cands[id].Series[tt]
				if tab.sum != nil && math.Float64bits(tab.sum[tt*3+k]) != math.Float64bits(want.Sum) {
					t.Fatalf("%v: sum row %d col %d", tc.agg, tt, k)
				}
				if tab.count != nil && math.Float64bits(tab.count[tt*3+k]) != math.Float64bits(want.Count) {
					t.Fatalf("%v: count row %d col %d", tc.agg, tt, k)
				}
			}
		}
		allowed := tab.Allowed()
		if len(allowed) != 10 || !allowed[4] || allowed[5] {
			t.Errorf("%v: Allowed() = %v", tc.agg, allowed)
		}
		if !tab.Lists(allowed) || tab.Lists(nil) || tab.Lists(make([]bool, 10)) {
			t.Errorf("%v: Lists disagrees with the listed set", tc.agg)
		}
		if NewScoreTable(u, nil).Allowed() != nil {
			t.Errorf("%v: a table over every candidate must report a nil bitmap", tc.agg)
		}
		for id, want := range []int{-1, 0, -1, -1, 1, -1, -1, 2, -1, -1} {
			if got := tab.Column(id); got != want {
				t.Errorf("%v: Column(%d) = %d, want %d", tc.agg, id, got, want)
			}
		}
		row := []float64{-7, -7, -7, -7}
		tab.ScoreRow(0, 3, row)
		if row[3] != -7 {
			t.Errorf("%v: ScoreRow wrote past its %d columns", tc.agg, len(tab.IDs()))
		}
	}
}
