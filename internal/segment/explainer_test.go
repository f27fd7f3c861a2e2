package segment

import (
	"reflect"
	"testing"

	"repro/internal/explain"
	"repro/internal/relation"
)

func catID(t *testing.T, u *explain.Universe, cat string) int {
	t.Helper()
	conj, err := relation.NewConjunction(u.Relation(), map[string]string{"category": cat})
	if err != nil {
		t.Fatal(err)
	}
	id, ok := u.Lookup(conj)
	if !ok {
		t.Fatalf("category=%s is not a candidate", cat)
	}
	return id
}

// TestExplainerScoreTableTracksSelectableSet checks the explainer keeps
// one score table over exactly its selectable set: kept while the set is
// unchanged, rebuilt when the filter set or an approximate-mode
// restriction changes.
func TestExplainerScoreTableTracksSelectableSet(t *testing.T) {
	u := twoPhase(t, 20, 10)
	a, b := catID(t, u, "a"), catID(t, u, "b")
	e := newExplainer(t, u, ExplainerConfig{M: 2})

	if n := e.ScoreTableBytes(); n != 0 {
		t.Errorf("no table built yet, but %d bytes charged", n)
	}
	tab := e.ScoreTable()
	if len(tab.IDs()) != u.NumCandidates() || tab.Allowed() != nil {
		t.Fatalf("unfiltered table lists %v", tab.IDs())
	}
	if tab.Bytes() != e.ScoreTableBytes() {
		t.Errorf("built table is %d bytes, charged %d", tab.Bytes(), e.ScoreTableBytes())
	}
	e.SetAllowed(nil)
	if e.ScoreTable() != tab {
		t.Error("re-setting the same (empty) filter rebuilt the table")
	}

	allowed := make([]bool, u.NumCandidates())
	allowed[a] = true
	e.SetAllowed(allowed)
	onlyA := e.ScoreTable()
	if onlyA == tab || !reflect.DeepEqual(onlyA.IDs(), []int{a}) {
		t.Fatalf("filtered table lists %v, want [%d]", onlyA.IDs(), a)
	}
	e.SetAllowed(append([]bool(nil), allowed...))
	if e.ScoreTable() != onlyA {
		t.Error("an equal survivor set rebuilt the table")
	}
	if top := e.TopM(0, 19); len(top.Explanations) != 1 || top.Explanations[0].ID != a {
		t.Errorf("filtered top-m = %+v, want only category=a", top.Explanations)
	}

	// A restriction overrides the filter set until it is cleared, and
	// drops results solved under the old set.
	e.SetAllowed(nil)
	e.SetRestriction([]int{b})
	if ids := e.ScoreTable().IDs(); !reflect.DeepEqual(ids, []int{b}) {
		t.Fatalf("restricted table lists %v, want [%d]", ids, b)
	}
	if top := e.TopM(0, 19); len(top.Explanations) != 1 || top.Explanations[0].ID != b {
		t.Errorf("restricted top-m = %+v, want only category=b", top.Explanations)
	}
	e.SetRestriction(nil)
	if n := len(e.ScoreTable().IDs()); n != u.NumCandidates() {
		t.Fatalf("cleared restriction lists %d candidates, want %d", n, u.NumCandidates())
	}
}

// TestExplainerAppendedRefreshesTable grows a streaming universe in place
// and checks the table is refreshed rather than rebuilt while the
// selectable set holds, and rebuilt once a new candidate joins it.
func TestExplainerAppendedRefreshesTable(t *testing.T) {
	r := makeCatRelation(t, map[string][]float64{
		"a": {1, 2, 3, 4, 5, 6},
		"b": {6, 5, 4, 3, 2, 1},
	})
	u, err := explain.NewUniverse(r, explain.Config{Measure: "v", Agg: relation.Sum, Streaming: true})
	if err != nil {
		t.Fatal(err)
	}
	e := newExplainer(t, u, ExplainerConfig{M: 2})
	e.TopM(0, 5)
	tab := e.ScoreTable()

	appendDay := func(label string, cats []string, vals []float64) explain.AppendInfo {
		t.Helper()
		ts := make([]string, len(cats))
		dims := make([][]string, len(cats))
		meas := make([][]float64, len(cats))
		for i := range cats {
			ts[i], dims[i], meas[i] = label, []string{cats[i]}, []float64{vals[i]}
		}
		if err := r.AppendRows(ts, dims, meas); err != nil {
			t.Fatal(err)
		}
		info, err := u.Append()
		if err != nil {
			t.Fatal(err)
		}
		e.Appended(nil, info.ChangedFrom)
		return info
	}

	appendDay("0006", []string{"a", "b"}, []float64{9, 0})
	if e.ScoreTable() != tab {
		t.Error("an append keeping the candidate set rebuilt the table")
	}
	if !tab.Equal(explain.NewScoreTable(u, nil)) {
		t.Fatal("refreshed table differs from a fresh build")
	}
	if top := e.TopM(0, 6); len(top.Explanations) == 0 {
		t.Fatal("no explanations over the grown series")
	}

	appendDay("0007", []string{"a", "c"}, []float64{10, 4})
	grown := e.ScoreTable()
	if grown == tab || len(grown.IDs()) != u.NumCandidates() {
		t.Fatalf("a new candidate left the table at %d ids (universe has %d)", len(grown.IDs()), u.NumCandidates())
	}
	if !grown.Equal(explain.NewScoreTable(u, nil)) {
		t.Fatal("rebuilt table differs from a fresh build")
	}
}
