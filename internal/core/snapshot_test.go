package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/datasets"
	"repro/internal/explain"
	"repro/internal/relation"
)

// explainViaSnapshot round-trips the dataset's relation and raw universe
// through the snapshot codecs, builds an engine on the restored state,
// and returns its result — the warm-restart path end to end.
func explainViaSnapshot(t *testing.T, d *datasets.Dataset, opts Options) *Result {
	t.Helper()
	// Snapshot the raw (unsmoothed, default-order) universe, as the
	// catalog's background refresher does.
	u, err := explain.NewUniverse(d.Rel, explain.Config{
		Measure: d.Measure, Agg: d.Agg, ExplainBy: d.ExplainBy, MaxOrder: d.MaxOrder,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sw relation.SnapWriter
	d.Rel.EncodeSnapshot(&sw)
	if err := u.EncodeSnapshot(&sw); err != nil {
		t.Fatal(err)
	}

	sr := relation.NewSnapReaderBytes(sw.Bytes())
	rel2, err := relation.DecodeSnapshot(sr)
	if err != nil {
		t.Fatal(err)
	}
	u2, err := explain.DecodeUniverseSnapshot(sr, rel2, false)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngineFromUniverse(u2, Query{Measure: d.Measure, Agg: d.Agg, ExplainBy: d.ExplainBy}, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Explain()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// resultsIdentical asserts two results agree bit for bit on everything
// the API reports: cuts, K, variances, per-segment explanations and γ.
func resultsIdentical(t *testing.T, name string, want, got *Result) {
	t.Helper()
	if want.K != got.K || want.AutoK != got.AutoK {
		t.Fatalf("%s: K %d/%v vs %d/%v", name, want.K, want.AutoK, got.K, got.AutoK)
	}
	if want.TotalVariance != got.TotalVariance {
		t.Fatalf("%s: total variance %v vs %v", name, want.TotalVariance, got.TotalVariance)
	}
	if !reflect.DeepEqual(want.Cuts(), got.Cuts()) {
		t.Fatalf("%s: cuts %v vs %v", name, want.Cuts(), got.Cuts())
	}
	if !reflect.DeepEqual(want.Series, got.Series) {
		t.Fatalf("%s: series differ", name)
	}
	for k := range want.KVariance {
		wv, gv := want.KVariance[k], got.KVariance[k]
		if wv != gv && !(math.IsInf(wv, 1) && math.IsInf(gv, 1)) {
			t.Fatalf("%s: KVariance[%d] %v vs %v", name, k, wv, gv)
		}
	}
	if len(want.Segments) != len(got.Segments) {
		t.Fatalf("%s: %d segments vs %d", name, len(want.Segments), len(got.Segments))
	}
	for i := range want.Segments {
		ws, gs := want.Segments[i], got.Segments[i]
		if ws.Start != gs.Start || ws.End != gs.End || ws.StartLabel != gs.StartLabel || ws.EndLabel != gs.EndLabel {
			t.Fatalf("%s: segment %d bounds differ", name, i)
		}
		if len(ws.Top) != len(gs.Top) {
			t.Fatalf("%s: segment %d has %d vs %d explanations", name, i, len(ws.Top), len(gs.Top))
		}
		for j := range ws.Top {
			we, ge := ws.Top[j], gs.Top[j]
			if we.Predicates != ge.Predicates || we.Gamma != ge.Gamma || we.Effect != ge.Effect {
				t.Fatalf("%s: segment %d top-%d: (%q, γ=%v, %v) vs (%q, γ=%v, %v)",
					name, i, j, we.Predicates, we.Gamma, we.Effect, ge.Predicates, ge.Gamma, ge.Effect)
			}
			if !reflect.DeepEqual(we.Values, ge.Values) {
				t.Fatalf("%s: segment %d top-%d values differ", name, i, j)
			}
		}
	}
}

// TestSnapshotExplainEquivalence is the property test for the
// warm-restart path: explaining a universe restored from
// load(save(universe)) yields bit-identical cuts, segments, and γ to a
// from-scratch build — on the liquor dataset (smoothed, order 3) and the
// stream dataset (order 2), optimized and vanilla.
func TestSnapshotExplainEquivalence(t *testing.T) {
	cases := []struct {
		name    string
		d       *datasets.Dataset
		vanilla bool
	}{
		{"liquor", datasets.Liquor(), false},
		{"stream", datasets.Stream(90), false},
		{"stream-vanilla", datasets.Stream(60), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			if tc.vanilla {
				opts = Options{}
			}
			opts.MaxOrder = tc.d.MaxOrder
			opts.SmoothWindow = tc.d.SmoothWindow
			q := Query{Measure: tc.d.Measure, Agg: tc.d.Agg, ExplainBy: tc.d.ExplainBy}

			eng, err := NewEngine(tc.d.Rel, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := eng.Explain()
			if err != nil {
				t.Fatal(err)
			}
			got := explainViaSnapshot(t, tc.d, opts)
			resultsIdentical(t, tc.name, want, got)
		})
	}
}

// TestNewEngineFromUniverseRejectsMismatch asserts the restore path
// refuses a universe whose shape differs from the query instead of
// serving wrong explanations.
func TestNewEngineFromUniverseRejectsMismatch(t *testing.T) {
	d := datasets.Stream(30)
	u, err := explain.NewUniverse(d.Rel, explain.Config{
		Measure: d.Measure, Agg: d.Agg, ExplainBy: d.ExplainBy, MaxOrder: d.MaxOrder,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.MaxOrder = d.MaxOrder

	badAgg := Query{Measure: d.Measure, Agg: relation.Avg, ExplainBy: d.ExplainBy}
	if _, err := NewEngineFromUniverse(u, badAgg, opts); err == nil {
		t.Fatal("mismatched aggregate accepted")
	}
	badBy := Query{Measure: d.Measure, Agg: d.Agg, ExplainBy: d.ExplainBy[:1]}
	if _, err := NewEngineFromUniverse(u, badBy, opts); err == nil {
		t.Fatal("mismatched explain-by set accepted")
	}
	badOrder := opts
	badOrder.MaxOrder = 1
	if _, err := NewEngineFromUniverse(u, Query{Measure: d.Measure, Agg: d.Agg, ExplainBy: d.ExplainBy}, badOrder); err == nil {
		t.Fatal("mismatched order threshold accepted")
	}
}
