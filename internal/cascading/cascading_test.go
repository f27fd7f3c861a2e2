package cascading

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/explain"
	"repro/internal/relation"
)

// buildTwoDim builds a relation over two days where slices change by known
// amounts so optimal top-m sets can be computed by hand:
//
//	state=NY: +100  (east)
//	state=CA: +60   (west)   CA&cat=a: +50, CA&cat=b: +10
//	state=WA: +5    (west)
func buildTwoDim(t *testing.T) *relation.Relation {
	t.Helper()
	b := relation.NewBuilder("x", "d", []string{"state", "cat"}, []string{"m"})
	add := func(day, state, cat string, v float64) {
		if err := b.Append(day, []string{state, cat}, []float64{v}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	add("1", "NY", "a", 10)
	add("1", "CA", "a", 5)
	add("1", "CA", "b", 5)
	add("1", "WA", "a", 5)
	add("2", "NY", "a", 110)
	add("2", "CA", "a", 55)
	add("2", "CA", "b", 15)
	add("2", "WA", "a", 10)
	r, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return r
}

func universeFor(t *testing.T, r *relation.Relation) *explain.Universe {
	t.Helper()
	u, err := explain.NewUniverse(r, explain.Config{Measure: "m", Agg: relation.Sum})
	if err != nil {
		t.Fatalf("NewUniverse: %v", err)
	}
	return u
}

// tableOf builds the score table over the candidates allowed admits (nil:
// every candidate).
func tableOf(u *explain.Universe, allowed []bool) *explain.ScoreTable {
	if allowed == nil {
		return explain.NewScoreTable(u, nil)
	}
	ids := []int{}
	for id, ok := range allowed {
		if ok {
			ids = append(ids, id)
		}
	}
	return explain.NewScoreTable(u, ids)
}

// describe renders candidate id's conjunction with names resolved.
func describe(u *explain.Universe, id int) string {
	return u.Candidate(id).Conj.String(u.Relation())
}

func names(u *explain.Universe, res Result) []string {
	out := make([]string, len(res.Explanations))
	for i, p := range res.Explanations {
		out[i] = describe(u, p.ID)
	}
	return out
}

func TestTop1PicksLargestSlice(t *testing.T) {
	r := buildTwoDim(t)
	u := universeFor(t, r)
	res := NewSolver(u, 1).Solve(0, 1, tableOf(u, nil))
	if len(res.Explanations) != 1 {
		t.Fatalf("got %d explanations, want 1", len(res.Explanations))
	}
	// cat=a aggregates the a-slices of every state: +155, the single
	// largest mover across both explain-by attributes.
	if got := describe(u, res.Explanations[0].ID); got != "cat=a" {
		t.Errorf("top-1 = %q, want cat=a", got)
	}
	if res.Explanations[0].Gamma != 155 {
		t.Errorf("γ = %g, want 155", res.Explanations[0].Gamma)
	}
	if res.Explanations[0].Effect != explain.Increase {
		t.Errorf("effect = %v, want +", res.Explanations[0].Effect)
	}
}

func TestTop3IsOptimalAndNonOverlapping(t *testing.T) {
	r := buildTwoDim(t)
	u := universeFor(t, r)
	res := NewSolver(u, 3).Solve(0, 1, tableOf(u, nil))
	// Optimal: NY(100) + CA&a(50) + CA&b(10) = 160 beats NY+CA+WA = 165?
	// NY+CA+WA = 100+60+5 = 165 > 160, so the optimum keeps CA whole.
	got := names(u, res)
	want := []string{"state=NY", "state=CA", "state=WA"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("top-3 = %v, want %v", got, want)
	}
	if res.Best[3] != 165 {
		t.Errorf("Best[3] = %g, want 165", res.Best[3])
	}
	assertNonOverlapping(t, u, res)
}

func TestDrillDownBeatsWholeSliceWhenSplitHelps(t *testing.T) {
	// Every order-1 slice nets out to +10, but inside each state the two
	// categories move by ±80/∓70: the DP must drill to order-2 pairs.
	b := relation.NewBuilder("x", "d", []string{"state", "cat"}, []string{"m"})
	add := func(day, state, cat string, v float64) { _ = b.Append(day, []string{state, cat}, []float64{v}) }
	add("1", "CA", "a", 100)
	add("1", "CA", "b", 100)
	add("1", "NY", "a", 100)
	add("1", "NY", "b", 100)
	add("2", "CA", "a", 180) // +80
	add("2", "CA", "b", 30)  // -70, so CA net +10
	add("2", "NY", "a", 30)  // -70
	add("2", "NY", "b", 180) // +80, so NY net +10; cats also net +10 each
	r, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	u := universeFor(t, r)
	res := NewSolver(u, 2).Solve(0, 1, tableOf(u, nil))
	got := names(u, res)
	sort.Strings(got)
	want := []string{"state=CA & cat=a", "state=NY & cat=b"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("top-2 = %v, want %v", got, want)
	}
	if res.Best[2] != 160 {
		t.Errorf("Best[2] = %g, want 160", res.Best[2])
	}
	// Both picks are increases.
	if res.Explanations[0].Effect != explain.Increase || res.Explanations[1].Effect != explain.Increase {
		t.Errorf("effects = %v,%v, want +,+",
			res.Explanations[0].Effect, res.Explanations[1].Effect)
	}
	assertNonOverlapping(t, u, res)
}

func TestBestVectorMonotone(t *testing.T) {
	r := buildTwoDim(t)
	u := universeFor(t, r)
	res := NewSolver(u, 3).Solve(0, 1, tableOf(u, nil))
	if res.Best[0] != 0 {
		t.Errorf("Best[0] = %g, want 0", res.Best[0])
	}
	for q := 1; q < len(res.Best); q++ {
		if res.Best[q] < res.Best[q-1] {
			t.Errorf("Best not monotone: Best[%d]=%g < Best[%d]=%g",
				q, res.Best[q], q-1, res.Best[q-1])
		}
	}
	var total float64
	for _, p := range res.Explanations {
		total += p.Gamma
	}
	if math.Abs(total-res.Best[3]) > 1e-9 {
		t.Errorf("Σγ of the picks = %g, Best[3] = %g", total, res.Best[3])
	}
}

func TestAllowedRestrictsSelection(t *testing.T) {
	r := buildTwoDim(t)
	u := universeFor(t, r)
	s := NewSolver(u, 1)
	// Forbid state=NY; the best selectable is state=CA (60).
	allowed := make([]bool, u.NumCandidates())
	for i := range allowed {
		allowed[i] = true
	}
	ny, _ := relation.NewConjunction(r, map[string]string{"state": "NY"})
	nyID, ok := u.Lookup(ny)
	if !ok {
		t.Fatal("NY not a candidate")
	}
	allowed[nyID] = false
	res := s.Solve(0, 1, tableOf(u, allowed))
	if got := describe(u, res.Explanations[0].ID); got == "state=NY" {
		t.Errorf("picked forbidden candidate %q", got)
	}
}

func TestDrillThroughDisallowedIntermediate(t *testing.T) {
	// Only leaf conjunctions are selectable; the DP must still reach them
	// through their (disallowed) order-1 ancestors.
	r := buildTwoDim(t)
	u := universeFor(t, r)
	allowed := make([]bool, u.NumCandidates())
	for id := 0; id < u.NumCandidates(); id++ {
		if u.Candidate(id).Conj.Order() == 2 {
			allowed[id] = true
		}
	}
	res := NewSolver(u, 2).Solve(0, 1, tableOf(u, allowed))
	if len(res.Explanations) != 2 {
		t.Fatalf("got %d explanations, want 2", len(res.Explanations))
	}
	for _, p := range res.Explanations {
		if u.Candidate(p.ID).Conj.Order() != 2 {
			t.Errorf("picked %q, want only order-2 leaves", describe(u, p.ID))
		}
	}
	// Best leaves: NY&a(100) + CA&a(50).
	if res.Best[2] != 150 {
		t.Errorf("Best[2] = %g, want 150", res.Best[2])
	}
}

func TestGuessVerifyMatchesExactOnRandomData(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	states := []string{"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7"}
	cats := []string{"c0", "c1", "c2", "c3"}
	for trial := 0; trial < 20; trial++ {
		b := relation.NewBuilder("x", "d", []string{"state", "cat"}, []string{"m"})
		for _, s := range states {
			for _, c := range cats {
				v1 := float64(rng.Intn(1000))
				v2 := float64(rng.Intn(1000))
				_ = b.Append("1", []string{s, c}, []float64{v1})
				_ = b.Append("2", []string{s, c}, []float64{v2})
			}
		}
		r, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		u := universeFor(t, r)
		solver := NewSolver(u, 3)
		exact := solver.Solve(0, 1, tableOf(u, nil))
		for _, init := range []int{3, 5, 30} {
			gv, rounds := solver.GuessVerify(0, 1, init, tableOf(u, nil))
			if math.Abs(gv.Best[3]-exact.Best[3]) > 1e-9 {
				t.Errorf("trial %d init %d: guess-verify Best[3]=%g, exact=%g (rounds=%d)",
					trial, init, gv.Best[3], exact.Best[3], rounds)
			}
		}
	}
}

func TestGuessVerifyLargeInitIsOneRound(t *testing.T) {
	r := buildTwoDim(t)
	u := universeFor(t, r)
	solver := NewSolver(u, 3)
	_, rounds := solver.GuessVerify(0, 1, 10000, tableOf(u, nil))
	if rounds != 1 {
		t.Errorf("rounds = %d, want 1 when m̄ ≥ ε", rounds)
	}
}

func TestSolverMinimumM(t *testing.T) {
	r := buildTwoDim(t)
	u := universeFor(t, r)
	res := NewSolver(u, 0).Solve(0, 1, tableOf(u, nil))
	if len(res.Explanations) != 1 {
		t.Errorf("m<1 should clamp to 1, got %d picks", len(res.Explanations))
	}
}

func TestRankedByGammaDescending(t *testing.T) {
	r := buildTwoDim(t)
	u := universeFor(t, r)
	res := NewSolver(u, 3).Solve(0, 1, tableOf(u, nil))
	if !sort.SliceIsSorted(res.Explanations, func(i, j int) bool {
		return res.Explanations[i].Gamma > res.Explanations[j].Gamma
	}) {
		t.Errorf("explanations not ranked by γ: %+v", res.Explanations)
	}
}

// Exhaustive cross-check: on small random instances, the DP's Best[m]
// must match brute-force search over all non-overlapping candidate sets.
func TestDPMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		b := relation.NewBuilder("x", "d", []string{"a", "b"}, []string{"m"})
		avals := []string{"a0", "a1", "a2"}
		bvals := []string{"b0", "b1"}
		for _, av := range avals {
			for _, bv := range bvals {
				_ = b.Append("1", []string{av, bv}, []float64{float64(rng.Intn(50))})
				_ = b.Append("2", []string{av, bv}, []float64{float64(rng.Intn(50))})
			}
		}
		r, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		u := universeFor(t, r)
		m := 2 + rng.Intn(2)
		res := NewSolver(u, m).Solve(0, 1, tableOf(u, nil))
		want := bruteForceBest(u, 0, 1, m, nil)
		if math.Abs(res.Best[m]-want) > 1e-9 {
			t.Errorf("trial %d m=%d: DP=%g brute=%g", trial, m, res.Best[m], want)
		}

		// A restricted selectable set solves over the table's pruned
		// adjacency; exact and guess-and-verify must both reach the
		// restricted optimum.
		allowed := make([]bool, u.NumCandidates())
		for id := range allowed {
			allowed[id] = rng.Intn(3) > 0
		}
		want = bruteForceBest(u, 0, 1, m, allowed)
		tab := tableOf(u, allowed)
		s := NewSolver(u, m)
		exact := s.Solve(0, 1, tab)
		gv, _ := s.GuessVerify(0, 1, 1, tab)
		for name, got := range map[string]Result{"exact": exact, "guess": gv} {
			if math.Abs(got.Best[m]-want) > 1e-9 {
				t.Errorf("trial %d m=%d restricted %s: DP=%g brute=%g", trial, m, name, got.Best[m], want)
			}
			for _, p := range got.Explanations {
				if !allowed[p.ID] {
					t.Errorf("trial %d restricted %s picked unselectable %q", trial, name, describe(u, p.ID))
				}
			}
			assertNonOverlapping(t, u, got)
		}
	}
}

// overlaps reports whether two conjunctions can select a common record in
// some relation: they overlap unless they pin the same dimension to
// different values. This is the non-overlap test of Definition 3.4
// (σ_E1 R ∩ σ_E2 R = ∅ for every R exactly when they disagree on a shared
// dimension).
func overlaps(c, other relation.Conjunction) bool {
	i, j := 0, 0
	for i < len(c) && j < len(other) {
		switch {
		case c[i].Dim < other[j].Dim:
			i++
		case c[i].Dim > other[j].Dim:
			j++
		default:
			if c[i].Value != other[j].Value {
				return false
			}
			i++
			j++
		}
	}
	return true
}

// TestConjunctionOverlaps pins the overlap oracle the brute-force checks
// rely on.
func TestConjunctionOverlaps(t *testing.T) {
	pred := func(dim int, v uint32) relation.Pred { return relation.Pred{Dim: dim, Value: v} }
	ny := relation.Conjunction{pred(0, 0)}
	ca := relation.Conjunction{pred(0, 1)}
	beer := relation.Conjunction{pred(1, 0)}
	nyBeer := relation.Conjunction{pred(0, 0), pred(1, 0)}

	cases := []struct {
		a, b relation.Conjunction
		want bool
	}{
		{ny, ca, false},        // same dim, different value
		{ny, beer, true},       // different dims can intersect
		{ny, nyBeer, true},     // ancestor-descendant overlap
		{ca, nyBeer, false},    // disagree on state
		{nil, ny, true},        // root overlaps everything
		{nyBeer, nyBeer, true}, // self overlap
	}
	for i, tc := range cases {
		if got := overlaps(tc.a, tc.b); got != tc.want {
			t.Errorf("case %d: overlaps = %v, want %v", i, got, tc.want)
		}
		if got := overlaps(tc.b, tc.a); got != tc.want {
			t.Errorf("case %d (sym): overlaps = %v, want %v", i, got, tc.want)
		}
	}
}

// bruteForceBest enumerates all subsets of the candidates allowed admits
// (nil: every candidate) of size ≤ m that are pairwise non-overlapping and
// returns the best total γ.
func bruteForceBest(u *explain.Universe, c, t, m int, allowed []bool) float64 {
	n := u.NumCandidates()
	gammas := make([]float64, n)
	for id := 0; id < n; id++ {
		gammas[id], _ = u.Gamma(id, c, t)
	}
	var best float64
	var rec func(start int, chosen []int, total float64)
	rec = func(start int, chosen []int, total float64) {
		if total > best {
			best = total
		}
		if len(chosen) == m {
			return
		}
		for id := start; id < n; id++ {
			ok := allowed == nil || allowed[id]
			for _, o := range chosen {
				if overlaps(u.Candidate(id).Conj, u.Candidate(o).Conj) {
					ok = false
					break
				}
			}
			if ok {
				rec(id+1, append(chosen, id), total+gammas[id])
			}
		}
	}
	rec(0, nil, 0)
	return best
}

func assertNonOverlapping(t *testing.T, u *explain.Universe, res Result) {
	t.Helper()
	for i := 0; i < len(res.Explanations); i++ {
		for j := i + 1; j < len(res.Explanations); j++ {
			a := u.Candidate(res.Explanations[i].ID).Conj
			b := u.Candidate(res.Explanations[j].ID).Conj
			if overlaps(a, b) {
				t.Errorf("overlapping picks: %q and %q", describe(u, res.Explanations[i].ID), describe(u, res.Explanations[j].ID))
			}
		}
	}
}
