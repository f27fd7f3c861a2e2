package cascading

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/explain"
	"repro/internal/relation"
)

// refSolver is the Cascading Analysts DP as it stood before leaf children
// were folded into the knapsack without recursion: every node — leaves
// included — gets a memoized (m+1)-vector and the O(m²) knapsack step,
// extraction re-runs each knapsack over every child, and the picks are
// ranked with sort.SliceStable. Guess-and-verify ranks with
// sort.SliceStable as well. It is the reference the production solver
// must match bit for bit.
type refSolver struct {
	u      *explain.Universe
	tab    *explain.ScoreTable
	m      int
	gamma  []float64
	effect []explain.Effect

	allowed []bool
	reach   []bool
	memo    map[int][]float64
}

func newRefSolver(u *explain.Universe, tab *explain.ScoreTable, metric explain.Metric, m, c, t int) *refSolver {
	n := u.NumCandidates()
	r := &refSolver{u: u, tab: tab, m: m, gamma: make([]float64, n), effect: make([]explain.Effect, n)}
	tab.Score(c, t, metric, r.gamma, r.effect)
	return r
}

// solve runs the DP with selection restricted to allowed (nil: any
// candidate); ids lists allowed's true entries.
func (r *refSolver) solve(allowed []bool, ids []int) Result {
	r.allowed, r.reach, r.memo = allowed, nil, map[int][]float64{}
	if allowed != nil {
		r.reach = make([]bool, r.u.NumCandidates()+1)
		for _, id := range ids {
			for _, anc := range r.u.AncestorsOf(id) {
				r.reach[anc+1] = true
			}
		}
	}
	res := Result{Best: append([]float64(nil), r.best(-1)...)}
	var picked []int
	r.extract(-1, r.m, &picked)
	for _, id := range picked {
		res.Explanations = append(res.Explanations, Picked{ID: id, Gamma: r.gamma[id], Effect: r.effect[id]})
	}
	sort.SliceStable(res.Explanations, func(i, j int) bool {
		return res.Explanations[i].Gamma > res.Explanations[j].Gamma
	})
	return res
}

func (r *refSolver) selectable(id int) bool { return r.allowed == nil || r.allowed[id] }

func (r *refSolver) best(node int) []float64 {
	if r.reach != nil && node >= 0 && !r.reach[node+1] {
		return make([]float64, r.m+1)
	}
	if v, ok := r.memo[node]; ok {
		return v
	}
	m := r.m
	out := make([]float64, m+1)
	for _, dim := range r.u.ExplainBy() {
		if node >= 0 && r.u.Candidate(node).Conj.HasDim(dim) {
			continue
		}
		kids := r.tab.ChildrenOf(node, dim)
		if len(kids) == 0 {
			continue
		}
		dp := make([]float64, m+1)
		for _, kid := range kids {
			if r.reach != nil && !r.reach[kid+1] {
				continue
			}
			kb := r.best(int(kid))
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
	if node >= 0 && r.selectable(node) {
		g := r.gamma[node]
		for q := 1; q <= m; q++ {
			if g > out[q] {
				out[q] = g
			}
		}
	}
	for q := 1; q <= m; q++ {
		if out[q] < out[q-1] {
			out[q] = out[q-1]
		}
	}
	r.memo[node] = out
	return out
}

func (r *refSolver) extract(node, q int, picked *[]int) {
	if q <= 0 {
		return
	}
	target := r.memo[node][q]
	if target == 0 {
		return
	}
	if node >= 0 && r.selectable(node) && r.gamma[node] >= target {
		*picked = append(*picked, node)
		return
	}
	m := r.m
	for _, dim := range r.u.ExplainBy() {
		if node >= 0 && r.u.Candidate(node).Conj.HasDim(dim) {
			continue
		}
		kids := r.tab.ChildrenOf(node, dim)
		if len(kids) == 0 {
			continue
		}
		dp := make([][]float64, len(kids)+1)
		take := make([][]int, len(kids)+1)
		dp[0], take[0] = make([]float64, m+1), make([]int, m+1)
		for k, kid := range kids {
			kb := r.best(int(kid))
			dp[k+1], take[k+1] = make([]float64, m+1), make([]int, m+1)
			for j := 0; j <= m; j++ {
				dp[k+1][j] = dp[k][j]
				for x := 1; x <= j; x++ {
					if v := dp[k][j-x] + kb[x]; v > dp[k+1][j] {
						dp[k+1][j], take[k+1][j] = v, x
					}
				}
			}
		}
		if dp[len(kids)][q] >= target {
			j := q
			for k := len(kids); k >= 1; k-- {
				if x := take[k][j]; x > 0 {
					r.extract(int(kids[k-1]), x, picked)
					j -= x
				}
			}
			return
		}
	}
	panic("reference extraction failed")
}

// guessVerify is the reference guess-and-verify over the table's
// selectable set. It also returns χ as the last round left it.
func (r *refSolver) guessVerify(initGuess int) (Result, int, []int) {
	chi := append([]int(nil), r.tab.IDs()...)
	base := r.tab.Allowed()
	mbar := max(initGuess, r.m)
	rounds, sorted := 0, 0
	for {
		rounds++
		if mbar >= len(chi) {
			return r.solve(base, chi), rounds, chi
		}
		if need := min(mbar+r.m, len(chi)); need > sorted {
			selectTop(chi, r.gamma, need)
			sort.SliceStable(chi[:need], func(i, j int) bool {
				return r.gamma[chi[i]] > r.gamma[chi[j]]
			})
			sorted = need
		}
		allowed := make([]bool, r.u.NumCandidates())
		for _, id := range chi[:mbar] {
			allowed[id] = true
		}
		res := r.solve(allowed, chi[:mbar])
		ok := true
		for mp := 0; mp < r.m && ok; mp++ {
			bound := res.Best[mp]
			for j := 1; j <= r.m-mp; j++ {
				if idx := mbar + j - 1; idx < len(chi) {
					bound += r.gamma[chi[idx]]
				}
			}
			ok = res.Best[r.m] >= bound-1e-12
		}
		if ok {
			return res, rounds, chi
		}
		mbar *= 2
	}
}

// sameResult reports how got differs from want bit for bit, or "".
func sameResult(got, want Result) string {
	if len(got.Best) != len(want.Best) {
		return fmt.Sprintf("len(Best) = %d, want %d", len(got.Best), len(want.Best))
	}
	for q := range got.Best {
		if math.Float64bits(got.Best[q]) != math.Float64bits(want.Best[q]) {
			return fmt.Sprintf("Best[%d] = %v, want %v", q, got.Best[q], want.Best[q])
		}
	}
	if len(got.Explanations) != len(want.Explanations) {
		return fmt.Sprintf("picks %v, want %v", got.Explanations, want.Explanations)
	}
	for i, p := range got.Explanations {
		w := want.Explanations[i]
		if p.ID != w.ID || math.Float64bits(p.Gamma) != math.Float64bits(w.Gamma) || p.Effect != w.Effect {
			return fmt.Sprintf("picks %v, want %v", got.Explanations, want.Explanations)
		}
	}
	return ""
}

// randomUniverse builds a two-day relation over 2–3 dimensions whose cells
// take small integer values, so exact γ ties and zero-γ slices (cells that
// do not move) are common, with β̄ drawn from 1..3.
func randomUniverse(t *testing.T, rng *rand.Rand) *explain.Universe {
	t.Helper()
	nd := 2 + rng.Intn(2)
	dims := []string{"a", "b", "c"}[:nd]
	b := relation.NewBuilder("x", "d", dims, []string{"m"})
	cards := make([]int, nd)
	for i := range cards {
		cards[i] = 2 + rng.Intn(3)
	}
	vals := make([]string, nd)
	var rec func(i int)
	rec = func(i int) {
		if i == nd {
			if rng.Intn(4) == 0 {
				return // a missing cell: not every combination occurs
			}
			v1 := float64(rng.Intn(6))
			v2 := v1
			if rng.Intn(3) > 0 {
				v2 = float64(rng.Intn(6))
			}
			for day, v := range []float64{v1, v2} {
				if err := b.Append(fmt.Sprint(day+1), vals, []float64{v}); err != nil {
					t.Fatal(err)
				}
			}
			return
		}
		for v := 0; v < cards[i]; v++ {
			vals[i] = fmt.Sprintf("%s%d", dims[i], v)
			rec(i + 1)
		}
	}
	rec(0)
	r, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	u, err := explain.NewUniverse(r, explain.Config{Measure: "m", Agg: relation.Sum, MaxOrder: 1 + rng.Intn(3)})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// TestLeafShortcutMatchesReferenceDP pins the leaf step, the pruned
// extraction and the typed ranking: on random universes with ties and
// zero-γ leaves, for m = 1…4, over every candidate and over random
// restricted selectable sets, both the exact solve and guess-and-verify
// must return exactly the reference DP's Best vector, picked ids and pick
// order. Guess-and-verify must also leave χ as the reference's full sort
// does, up to the order within its last guess, which a verified round
// reads only as a set: a later round's selectTop starts from χ, so that
// is what keeps rare ties at a guess boundary resolving the same way.
func TestLeafShortcutMatchesReferenceDP(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	multiRound := 0
	for trial := 0; trial < 150; trial++ {
		u := randomUniverse(t, rng)
		if u.NumTimestamps() < 2 || u.NumCandidates() == 0 {
			continue
		}
		n := u.NumCandidates()
		var ids []int // nil: every candidate
		if trial%3 > 0 {
			ids = []int{}
			for id := 0; id < n; id++ {
				if rng.Intn(3) > 0 {
					ids = append(ids, id)
				}
			}
		}
		tab := explain.NewScoreTable(u, ids)
		for m := 1; m <= 4; m++ {
			s := NewSolver(u, explain.AbsoluteChange, m)
			ref := newRefSolver(u, tab, explain.AbsoluteChange, m, 0, 1)
			ctx := fmt.Sprintf("trial %d (%d candidates, β̄ %d, %d listed) m=%d", trial, n, u.MaxOrder(), len(tab.IDs()), m)
			if d := sameResult(s.Solve(0, 1, tab), ref.solve(tab.Allowed(), tab.IDs())); d != "" {
				t.Fatalf("%s exact: %s", ctx, d)
			}
			for _, init := range []int{1, 2, 5} {
				got, gotRounds := s.GuessVerify(0, 1, init, tab)
				want, wantRounds, wantChi := ref.guessVerify(init)
				if d := sameResult(got, want); d != "" || gotRounds != wantRounds {
					t.Fatalf("%s guess init %d: %s (rounds %d, want %d)", ctx, init, d, gotRounds, wantRounds)
				}
				chi := append([]int(nil), s.chiBuf...)
				if mbar := max(init, m) << (gotRounds - 1); mbar < len(chi) {
					sortIDsByGamma(chi[:mbar], ref.gamma)
				}
				if fmt.Sprint(chi) != fmt.Sprint(wantChi) {
					t.Fatalf("%s guess init %d: χ left as %v, want %v", ctx, init, chi, wantChi)
				}
				if gotRounds > 1 {
					multiRound++
				}
			}
		}
	}
	if multiRound < 50 {
		t.Fatalf("only %d guess-and-verify solves took more than one round", multiRound)
	}
}

// TestLeafBitsDescribeTableAdjacency: a leaf bit is set exactly when the
// node has no children along any dimension in the table's adjacency, for
// full and pruned tables alike.
func TestLeafBitsDescribeTableAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		u := randomUniverse(t, rng)
		var ids []int
		if trial%2 == 1 {
			ids = []int{}
			for id := 0; id < u.NumCandidates(); id++ {
				if rng.Intn(2) == 0 {
					ids = append(ids, id)
				}
			}
		}
		tab := explain.NewScoreTable(u, ids)
		leaves := tab.Leaves()
		for id := 0; id < u.NumCandidates(); id++ {
			leaf := true
			for _, dim := range u.ExplainBy() {
				if len(tab.ChildrenOf(id, dim)) > 0 {
					leaf = false
				}
			}
			if got := leaves[id/64]&(1<<(id%64)) != 0; got != leaf {
				t.Fatalf("trial %d: leaf bit of %s = %v, want %v", trial, u.Describe(id), got, leaf)
			}
		}
	}
}
