package tsexplain_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/relation"
	"repro/internal/synth"
)

// The golden corpus pins the engine's canonical explanation output —
// cuts, segment labels, per-segment top attributions with full-precision
// γ, and the K-Variance value — for the three serving datasets at
// K ∈ {3, 5, 8}, in both the optimized and the vanilla configuration.
// Exact mode must stay bit-identical across refactors: any diff here is
// either a bug or an intentional algorithm change that must be
// re-baselined with -update-golden and explained in the commit.
//
//	go test -run TestGoldenCorpus -update-golden   # re-baseline
//
// The approximate mode is gated differentially instead (its output may
// legitimately differ): every reported segment's attribution must stay
// within the segment's own reported error bound of the exact optimum.

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from the current engine output")

var goldenKs = []int{3, 5, 8}

type goldenCase struct {
	name string
	data func() *datasets.Dataset
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{"liquor", datasets.Liquor},
		{"covid", datasets.CovidTotal},
		{"stream", func() *datasets.Dataset { return datasets.Stream(datasets.StreamDays) }},
		{"taxonomy", datasets.Taxonomy},
	}
}

// goldenDoc is the canonical JSON shape. Floats are serialized through
// strconv.FormatFloat(-1) strings so the comparison is bit-exact, not
// print-format-dependent.
type goldenDoc struct {
	Dataset  string          `json:"dataset"`
	Mode     string          `json:"mode"`
	K        int             `json:"k"`
	Cuts     []int           `json:"cuts"`
	Variance string          `json:"totalVariance"`
	Segments []goldenSegment `json:"segments"`
}

type goldenSegment struct {
	Start string      `json:"start"`
	End   string      `json:"end"`
	Top   []goldenTop `json:"top"`
}

type goldenTop struct {
	Predicates string `json:"predicates"`
	Effect     string `json:"effect"`
	Gamma      string `json:"gamma"`
	// Path pins the hierarchy drill-down path; omitted for flat datasets,
	// so the pre-hierarchy golden files stay byte-identical.
	Path []string `json:"path,omitempty"`
}

func g64(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func toGolden(name, mode string, res *core.Result) goldenDoc {
	doc := goldenDoc{
		Dataset:  name,
		Mode:     mode,
		K:        res.K,
		Cuts:     res.Cuts(),
		Variance: g64(res.TotalVariance),
	}
	for _, seg := range res.Segments {
		gs := goldenSegment{Start: seg.StartLabel, End: seg.EndLabel}
		for _, e := range seg.Top {
			gs.Top = append(gs.Top, goldenTop{
				Predicates: e.Predicates,
				Effect:     e.Effect.String(),
				Gamma:      g64(e.Gamma),
				Path:       e.Path,
			})
		}
		doc.Segments = append(doc.Segments, gs)
	}
	return doc
}

func goldenPath(name, mode string, k int) string {
	return filepath.Join("testdata", "golden", fmt.Sprintf("%s_%s_k%d.json", name, mode, k))
}

func goldenOptions(d *datasets.Dataset, vanilla bool) core.Options {
	var opts core.Options
	if !vanilla {
		opts = core.DefaultOptions()
	}
	opts.MaxOrder = d.MaxOrder
	opts.SmoothWindow = d.SmoothWindow
	return opts
}

func TestGoldenCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("golden corpus runs full engines; skipped in -short")
	}
	for _, tc := range goldenCases() {
		d := tc.data()
		for _, vanilla := range []bool{false, true} {
			mode := "opt"
			if vanilla {
				mode = "vanilla"
			}
			t.Run(tc.name+"/"+mode, func(t *testing.T) {
				// One engine per (dataset, mode), reused across K — the
				// per-segment cache is K-independent, exactly how the
				// server serves varying K from one pooled engine.
				eng, err := core.NewEngine(d.Rel, core.Query{
					Measure: d.Measure, Agg: d.Agg, ExplainBy: d.ExplainBy,
				}, goldenOptions(d, vanilla))
				if err != nil {
					t.Fatalf("engine: %v", err)
				}
				for _, k := range goldenKs {
					res, err := eng.ExplainWithKCtx(context.Background(), k)
					if err != nil {
						t.Fatalf("explain k=%d: %v", k, err)
					}
					got, err := json.MarshalIndent(toGolden(tc.name, mode, res), "", "  ")
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, '\n')
					path := goldenPath(tc.name, mode, k)
					if *updateGolden {
						if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
							t.Fatal(err)
						}
						if err := os.WriteFile(path, got, 0o644); err != nil {
							t.Fatal(err)
						}
						continue
					}
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatalf("missing golden file %s (regenerate with -update-golden): %v", path, err)
					}
					if string(want) != string(got) {
						t.Errorf("%s: engine output diverged from the golden corpus.\n--- want\n%s\n--- got\n%s\n"+
							"If this change is intentional, re-baseline with `go test -run TestGoldenCorpus -update-golden` and explain it in the commit.",
							path, want, got)
					}
				}
			})
		}
	}
}

// TestGoldenHierarchyLeafDifferential pins the grouped enumeration's
// degenerate case: a hierarchy whose explain-by set keeps only the leaf
// level must not register (one kept level behaves exactly flat), so the
// engine's output over a hierarchy-declaring relation is bit-identical —
// through the same JSON serialization the golden corpus uses, path field
// included — to a flat engine over the same data with no hierarchy
// declared.
func TestGoldenHierarchyLeafDifferential(t *testing.T) {
	params := synth.TaxonomyParams{
		Cats: 6, SubcatsPerCat: 4, LeavesPerSubcat: 4,
		N: 64, Drivers: 6, Seed: 7,
	}
	flat, err := synth.Taxonomy(params)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := synth.Taxonomy(params)
	if err != nil {
		t.Fatal(err)
	}
	if err := hier.Rel.DeclareHierarchy("cat>subcat>leaf", synth.TaxonomyLevels()); err != nil {
		t.Fatal(err)
	}

	run := func(rel *relation.Relation) []byte {
		t.Helper()
		opts := core.DefaultOptions()
		opts.MaxOrder = 2
		eng, err := core.NewEngine(rel, core.Query{
			Measure: "sales", Agg: relation.Sum, ExplainBy: []string{"leaf"},
		}, opts)
		if err != nil {
			t.Fatal(err)
		}
		var out []byte
		for _, k := range goldenKs {
			res, err := eng.ExplainWithKCtx(context.Background(), k)
			if err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
			doc, err := json.MarshalIndent(toGolden("leafdiff", "opt", res), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, doc...)
			out = append(out, '\n')
		}
		return out
	}

	flatOut := run(flat.Rel)
	hierOut := run(hier.Rel)
	if string(flatOut) != string(hierOut) {
		t.Errorf("leaf-level hierarchy output diverged from the flat path.\n--- flat\n%s\n--- hierarchy\n%s", flatOut, hierOut)
	}
}

// TestGoldenApproxDifferential gates approximate mode against the same
// corpus: per segment of the approximate result, the exact optimal
// attribution (computed by an exact engine on the same boundaries) must
// exceed the approximate one by no more than the segment's own reported
// error bound, and the reported bound must meet the requested epsilon
// whenever refinement wasn't truncated by a budget.
func TestGoldenApproxDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential corpus runs full engines; skipped in -short")
	}
	const eps = 0.05
	for _, tc := range goldenCases() {
		d := tc.data()
		t.Run(tc.name, func(t *testing.T) {
			q := core.Query{Measure: d.Measure, Agg: d.Agg, ExplainBy: d.ExplainBy}
			exact, err := core.NewEngine(d.Rel, q, goldenOptions(d, false))
			if err != nil {
				t.Fatalf("exact engine: %v", err)
			}
			aopts := goldenOptions(d, false)
			// A small candidate budget forces genuine pruning on the
			// built-in datasets, so the bound is exercised rather than
			// trivially zero.
			aopts.Approx = core.ApproxOptions{Enabled: true, Epsilon: eps, MaxCandidates: 256}
			approx, err := core.NewEngine(d.Rel, q, aopts)
			if err != nil {
				t.Fatalf("approx engine: %v", err)
			}
			for _, k := range goldenKs {
				res, err := approx.ExplainWithKCtx(context.Background(), k)
				if err != nil {
					t.Fatalf("approx explain k=%d: %v", k, err)
				}
				if res.Approx == nil {
					t.Fatalf("k=%d: no ApproxInfo", k)
				}
				mIdx := len(exact.Explainer().TopM(0, 1).Best) - 1
				for _, seg := range res.Segments {
					ge := exact.Explainer().TopM(seg.Start, seg.End).Best[mIdx]
					var ga float64
					for _, e := range seg.Top {
						ga += e.Gamma
					}
					if ge <= 0 {
						continue
					}
					actual := (ge - ga) / ge
					if actual > seg.ErrBound+1e-9 {
						t.Errorf("%s k=%d segment [%s..%s]: measured error %.6f exceeds reported bound %.6f",
							tc.name, k, seg.StartLabel, seg.EndLabel, actual, seg.ErrBound)
					}
				}
				if !res.Approx.Truncated &&
					res.Approx.CandidatesUsed < res.Approx.MaxCandidates &&
					res.Approx.CandidatesUsed < res.Approx.CandidatesEligible &&
					res.Approx.MaxErrBound > eps {
					t.Errorf("%s k=%d: bound %g > ε %g with refinement budget left",
						tc.name, k, res.Approx.MaxErrBound, eps)
				}
			}
		})
	}
}
