package explain

import (
	"math"
	"sort"
	"testing"

	"repro/internal/relation"
	"repro/internal/synth"
)

// taxUniverse builds a small two-level taxonomy (state → county) plus a
// flat channel dimension: TX{hou, aus} and CA{la, sf}, each county
// selling over web and store with distinct trends.
func taxUniverse(t *testing.T, explainBy []string, maxOrder int) *Universe {
	t.Helper()
	b := relation.NewBuilder("tax", "T", []string{"state", "county", "channel"}, []string{"sales"})
	labels := []string{"t0", "t1", "t2", "t3"}
	b.SetTimeOrder(labels)
	type slice struct {
		state, county, channel string
		vals                   [4]float64
	}
	slices := []slice{
		{"TX", "hou", "web", [4]float64{10, 40, 40, 40}},
		{"TX", "hou", "store", [4]float64{5, 5, 30, 5}},
		{"TX", "aus", "web", [4]float64{8, 8, 8, 8}},
		{"CA", "la", "web", [4]float64{20, 20, 2, 2}},
		{"CA", "la", "store", [4]float64{3, 3, 3, 12}},
		{"CA", "sf", "store", [4]float64{7, 1, 7, 1}},
	}
	for _, s := range slices {
		for i, v := range s.vals {
			if err := b.Append(labels[i], []string{s.state, s.county, s.channel}, []float64{v}); err != nil {
				t.Fatal(err)
			}
		}
	}
	rel, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.DeclareHierarchy("state>county", []string{"state", "county"}); err != nil {
		t.Fatal(err)
	}
	u, err := NewUniverse(rel, Config{
		Measure: "sales", Agg: relation.Sum,
		ExplainBy: explainBy, MaxOrder: maxOrder,
	})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func conjFor(t *testing.T, u *Universe, kv ...string) relation.Conjunction {
	t.Helper()
	r := u.Relation()
	var conj relation.Conjunction
	for i := 0; i+1 < len(kv); i += 2 {
		d := r.DimIndex(kv[i])
		if d < 0 {
			t.Fatalf("unknown dim %q", kv[i])
		}
		v, ok := r.Dim(d).ID(kv[i+1])
		if !ok {
			t.Fatalf("unknown value %q of %q", kv[i+1], kv[i])
		}
		conj = append(conj, relation.Pred{Dim: d, Value: v})
	}
	sort.Slice(conj, func(i, j int) bool { return conj[i].Dim < conj[j].Dim })
	return conj
}

func mustLookup(t *testing.T, u *Universe, kv ...string) int {
	t.Helper()
	id, ok := u.Lookup(conjFor(t, u, kv...))
	if !ok {
		t.Fatalf("conjunction %v not enumerated", kv)
	}
	return id
}

// TestGroupedEnumeration: subsets holding two levels of one hierarchy are
// never enumerated, single-level and mixed hierarchy/flat conjunctions
// are, and candidates exist at every level.
func TestGroupedEnumeration(t *testing.T) {
	u := taxUniverse(t, []string{"state", "county", "channel"}, 3)
	if !u.HasTaxonomy() {
		t.Fatal("universe should have a taxonomy")
	}
	r := u.Relation()
	sd, cd := r.DimIndex("state"), r.DimIndex("county")
	for id := 0; id < u.NumCandidates(); id++ {
		conj := u.Candidate(id).Conj
		if conj.HasDim(sd) && conj.HasDim(cd) {
			t.Fatalf("mixed-level conjunction enumerated: %s", conj.String(r))
		}
	}
	mustLookup(t, u, "state", "TX")
	mustLookup(t, u, "county", "hou")
	mustLookup(t, u, "county", "hou", "channel", "web")
	mustLookup(t, u, "state", "CA", "channel", "store")
	if _, ok := u.Lookup(conjFor(t, u, "state", "TX", "county", "hou")); ok {
		t.Fatal("(state, county) conjunction should not be enumerated")
	}
}

// TestTaxEdges: every deeper-level candidate is a drill-down child of its
// roll-up, in the same child lists attribute extensions use, and the
// per-(node, dim) lists stay single-mechanism.
func TestTaxEdges(t *testing.T) {
	u := taxUniverse(t, []string{"state", "county", "channel"}, 3)
	r := u.Relation()
	cd := r.DimIndex("county")

	tx := mustLookup(t, u, "state", "TX")
	hou := mustLookup(t, u, "county", "hou")
	aus := mustLookup(t, u, "county", "aus")
	kids := u.ChildrenOf(tx, cd)
	got := map[int]bool{}
	for _, k := range kids {
		got[int(k)] = true
	}
	if !got[hou] || !got[aus] || len(kids) != 2 {
		t.Fatalf("ChildrenOf(TX, county) = %v, want {hou, aus}", kids)
	}

	// Conjunction roll-up: (county=hou & channel=web) drills down from
	// (state=TX & channel=web).
	txWeb := mustLookup(t, u, "state", "TX", "channel", "web")
	houWeb := mustLookup(t, u, "county", "hou", "channel", "web")
	found := false
	for _, k := range u.ChildrenOf(txWeb, cd) {
		if int(k) == houWeb {
			found = true
		}
	}
	if !found {
		t.Fatalf("(county=hou & channel=web) missing from ChildrenOf(state=TX & channel=web, county)")
	}

	// Child lists must stay sorted ascending (the DP's binary searches
	// and the append path rely on it).
	for id := -1; id < u.NumCandidates(); id++ {
		for _, d := range u.ExplainBy() {
			kids := u.ChildrenOf(id, d)
			for i := 1; i < len(kids); i++ {
				if kids[i] <= kids[i-1] {
					t.Fatalf("ChildrenOf(%d, %d) not sorted: %v", id, d, kids)
				}
			}
		}
	}
}

// TestGeneralizedAncestors: the ancestor closure of a conjunction holds
// every drop/keep/roll-up combination — and nothing else.
func TestGeneralizedAncestors(t *testing.T) {
	u := taxUniverse(t, []string{"state", "county", "channel"}, 3)
	houWeb := mustLookup(t, u, "county", "hou", "channel", "web")
	want := map[int]bool{
		mustLookup(t, u, "county", "hou"):                   true,
		mustLookup(t, u, "channel", "web"):                  true,
		mustLookup(t, u, "state", "TX"):                     true,
		mustLookup(t, u, "state", "TX", "channel", "web"):   true,
		mustLookup(t, u, "county", "hou", "channel", "web"): true, // self
	}
	anc := u.AncestorsOf(houWeb)
	got := map[int]bool{houWeb: true}
	for _, a := range anc {
		got[int(a)] = true
	}
	if len(got) != len(want) {
		t.Fatalf("ancestors of (hou & web) = %v, want %v", got, want)
	}
	for id := range want {
		if !got[id] {
			t.Fatalf("missing ancestor %s", u.Candidate(id).Conj.String(u.Relation()))
		}
	}
}

// TestSingleKeptLevelStaysFlat: with only one hierarchy level among the
// explain-by attributes the taxonomy must not register — enumeration,
// adjacency, and ancestors are the flat path's, bit for bit.
func TestSingleKeptLevelStaysFlat(t *testing.T) {
	u := taxUniverse(t, []string{"county", "channel"}, 2)
	if u.HasTaxonomy() {
		t.Fatal("single kept level must behave flat")
	}
	if NewSubtreeBounds(u) != nil {
		t.Fatal("no selector without a taxonomy")
	}
	if p := u.LevelPath(mustLookup(t, u, "county", "hou")); p != nil {
		t.Fatalf("LevelPath on flat universe = %v, want nil", p)
	}
}

// TestLevelPath: the drill-down path of the deepest hierarchy predicate.
func TestLevelPath(t *testing.T) {
	u := taxUniverse(t, []string{"state", "county", "channel"}, 3)
	cases := []struct {
		kv   []string
		want []string
	}{
		{[]string{"county", "hou", "channel", "web"}, []string{"TX", "hou"}},
		{[]string{"state", "CA"}, []string{"CA"}},
		{[]string{"channel", "web"}, nil},
	}
	for _, c := range cases {
		got := u.LevelPath(mustLookup(t, u, c.kv...))
		if len(got) != len(c.want) {
			t.Fatalf("LevelPath(%v) = %v, want %v", c.kv, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("LevelPath(%v) = %v, want %v", c.kv, got, c.want)
			}
		}
	}
}

// TestSubtreeCapDominance is the pruning soundness property: every
// candidate's cap dominates its own exact bound and the exact bound of
// every DAG descendant, so cutting a subtree at cap ≤ θ never loses a
// candidate scoring above θ.
func TestSubtreeCapDominance(t *testing.T) {
	u := taxUniverse(t, []string{"state", "county", "channel"}, 3)
	sb := NewSubtreeBounds(u)
	if sb == nil {
		t.Fatal("selector should engage for SUM over non-negative sales")
	}
	for id := 0; id < u.NumCandidates(); id++ {
		sb.visit(id)
	}
	var walk func(id int, cap float64)
	walk = func(id int, cap float64) {
		if sb.bounds[id] > cap+1e-9 {
			t.Fatalf("candidate %s: bound %g exceeds ancestor cap %g",
				u.Candidate(id).Conj.String(u.Relation()), sb.bounds[id], cap)
		}
		next := cap
		if sb.caps[id] < next {
			next = sb.caps[id]
		}
		for _, d := range u.ExplainBy() {
			for _, k := range u.ChildrenOf(id, d) {
				walk(int(k), next)
			}
		}
	}
	for _, d := range u.ExplainBy() {
		for _, k := range u.ChildrenOf(-1, d) {
			walk(int(k), math.Inf(1))
		}
	}

	// The memoized exact bounds and caps are the shared φ-range kernel's,
	// bit for bit, and so equal the flat path's ContributionBounds.
	flat := u.ContributionBounds(nil)
	fTot := u.TotalValues()
	for id := range flat {
		mn, mx := phiRange(u.agg, u.total, fTot, u.cands[id].Series)
		if math.Float64bits(sb.bounds[id]) != math.Float64bits(mx-mn) || math.Float64bits(sb.caps[id]) != math.Float64bits(mx) {
			t.Fatalf("candidate %d: walk bound %g cap %g, kernel %g and %g", id, sb.bounds[id], sb.caps[id], mx-mn, mx)
		}
		if math.Float64bits(flat[id]) != math.Float64bits(sb.bounds[id]) {
			t.Fatalf("candidate %d: walk bound %g != ContributionBounds %g", id, sb.bounds[id], flat[id])
		}
	}
}

// TestSelectTopSoundness: on a real taxonomy-shaped dataset, SelectTop's
// kept set and theta satisfy the contract the error bound rests on —
// every eligible candidate not kept has exact bound ≤ θ, and θ never
// exceeds the worst kept bound.
func TestSelectTopSoundness(t *testing.T) {
	d, err := synth.Taxonomy(synth.TaxonomyParams{
		Cats: 4, SubcatsPerCat: 3, LeavesPerSubcat: 4, N: 48, Drivers: 4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Rel.DeclareHierarchy("cat>subcat>leaf", synth.TaxonomyLevels()); err != nil {
		t.Fatal(err)
	}
	u, err := NewUniverse(d.Rel, Config{
		Measure: "sales", Agg: relation.Sum,
		ExplainBy: []string{"cat", "subcat", "leaf"},
		MaxOrder:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	sb := NewSubtreeBounds(u)
	if sb == nil {
		t.Fatal("selector should engage")
	}
	exact := u.ContributionBounds(nil)

	check := func(allowed []bool, max int) {
		t.Helper()
		ids, theta := sb.SelectTop(allowed, max)
		eligible := 0
		for id := range exact {
			if allowed == nil || allowed[id] {
				eligible++
			}
		}
		wantLen := max
		if eligible < wantLen {
			wantLen = eligible
		}
		if len(ids) != wantLen {
			t.Fatalf("max=%d: kept %d ids, want %d", max, len(ids), wantLen)
		}
		kept := make(map[int]bool, len(ids))
		minKept := math.Inf(1)
		for i, id := range ids {
			if i > 0 && ids[i-1] >= id {
				t.Fatalf("ids not ascending: %v", ids)
			}
			if allowed != nil && !allowed[id] {
				t.Fatalf("disallowed id %d kept", id)
			}
			kept[id] = true
			if exact[id] < minKept {
				minKept = exact[id]
			}
		}
		for id := range exact {
			if kept[id] || (allowed != nil && !allowed[id]) {
				continue
			}
			if exact[id] > theta+1e-9 {
				t.Fatalf("max=%d: excluded candidate %d has bound %g > θ %g", max, id, exact[id], theta)
			}
		}
		if len(ids) == max && theta > minKept+1e-9 {
			t.Fatalf("max=%d: θ %g exceeds worst kept bound %g", max, theta, minKept)
		}
	}

	for _, max := range []int{1, 4, 16, 64, u.NumCandidates(), u.NumCandidates() + 10} {
		check(nil, max)
	}
	// An allowed bitmap excludes ids from keeping but their subtrees stay
	// traversable.
	allowed := make([]bool, u.NumCandidates())
	for id := range allowed {
		allowed[id] = id%3 != 0
	}
	for _, max := range []int{4, 32, 128} {
		check(allowed, max)
	}

	// Pruning must actually engage on the taxonomy shape: a small budget
	// should not visit the whole candidate space.
	fresh := NewSubtreeBounds(u)
	fresh.SelectTop(nil, 8)
	if fresh.Visited >= u.NumCandidates() {
		t.Fatalf("best-first walk visited all %d candidates at budget 8 — no pruning", fresh.Visited)
	}
}

// TestNewSubtreeBoundsGating: the selector only engages when the cap is
// sound for the workload.
func TestNewSubtreeBoundsGating(t *testing.T) {
	if sb := NewSubtreeBounds(taxUniverse(t, []string{"state", "county", "channel"}, 3)); sb == nil {
		t.Fatal("SUM over non-negative measure should engage")
	}

	b := relation.NewBuilder("neg", "T", []string{"state", "county"}, []string{"m"})
	b.SetTimeOrder([]string{"t0", "t1"})
	rows := []struct {
		s, c string
		v    [2]float64
	}{
		{"TX", "hou", [2]float64{1, 2}},
		{"TX", "aus", [2]float64{1, -3}},
		{"CA", "la", [2]float64{2, 2}},
	}
	for _, row := range rows {
		for i, v := range row.v {
			if err := b.Append([]string{"t0", "t1"}[i], []string{row.s, row.c}, []float64{v}); err != nil {
				t.Fatal(err)
			}
		}
	}
	rel, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.DeclareHierarchy("state>county", []string{"state", "county"}); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Measure: "m", Agg: relation.Sum}
	u, err := NewUniverse(rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if NewSubtreeBounds(u) != nil {
		t.Fatal("signed SUM must not engage the subtree selector")
	}
	cfg.Agg = relation.Avg
	u, err = NewUniverse(rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if NewSubtreeBounds(u) != nil {
		t.Fatal("AVG must not engage the subtree selector")
	}
	cfg.Agg = relation.Count
	u, err = NewUniverse(rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if NewSubtreeBounds(u) == nil {
		t.Fatal("COUNT should engage the subtree selector")
	}
}
