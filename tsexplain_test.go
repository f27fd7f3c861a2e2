package tsexplain_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	tsexplain "repro"
)

// covidCSV is a miniature covid-style CSV exercised through the public
// API only.
func covidCSV() string {
	var sb strings.Builder
	sb.WriteString("date,state,cases\n")
	days := 30
	for d := 0; d < days; d++ {
		ny, ca := 0, 0
		if d <= 15 {
			ny = 100 * d
			ca = 10
		} else {
			ny = 1500
			ca = 10 + 120*(d-15)
		}
		fmt.Fprintf(&sb, "2020-03-%02d,NY,%d\n", d+1, ny)
		fmt.Fprintf(&sb, "2020-03-%02d,CA,%d\n", d+1, ca)
	}
	return sb.String()
}

func TestPublicAPIEndToEnd(t *testing.T) {
	rel, err := tsexplain.ReadCSV(strings.NewReader(covidCSV()), tsexplain.CSVSpec{
		Name:     "covid-mini",
		TimeCol:  "date",
		DimCols:  []string{"state"},
		MeasCols: []string{"cases"},
	})
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	res, err := tsexplain.Explain(rel, tsexplain.Query{
		Measure: "cases",
		Agg:     tsexplain.Sum,
	}, tsexplain.Options{K: 2})
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if res.K != 2 {
		t.Fatalf("K = %d, want 2", res.K)
	}
	if got := res.Segments[0].Top[0].Predicates; got != "state=NY" {
		t.Errorf("segment 1 top = %q, want state=NY", got)
	}
	if got := res.Segments[1].Top[0].Predicates; got != "state=CA" {
		t.Errorf("segment 2 top = %q, want state=CA", got)
	}
	for _, seg := range res.Segments {
		if seg.Top[0].Effect != tsexplain.Increase {
			t.Errorf("top effect = %v, want +", seg.Top[0].Effect)
		}
	}
	cut := res.Cuts()[1]
	if cut < 14 || cut > 17 {
		t.Errorf("cut at %d, want ≈15", cut)
	}
}

func TestPublicAPIDefaultsAndRoundTrip(t *testing.T) {
	rel, err := tsexplain.ReadCSV(strings.NewReader(covidCSV()), tsexplain.CSVSpec{
		TimeCol:  "date",
		DimCols:  []string{"state"},
		MeasCols: []string{"cases"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tsexplain.WriteCSV(&buf, rel); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := tsexplain.ReadCSV(&buf, tsexplain.CSVSpec{
		TimeCol:  "date",
		DimCols:  []string{"state"},
		MeasCols: []string{"cases"},
	})
	if err != nil {
		t.Fatalf("re-ReadCSV: %v", err)
	}
	opts := tsexplain.DefaultOptions()
	opts.K = 2
	res, err := tsexplain.Explain(back, tsexplain.Query{Measure: "cases", Agg: tsexplain.Sum}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) != 2 {
		t.Fatalf("segments = %d, want 2", len(res.Segments))
	}
}

func TestPublicAPIBuilderAndIncremental(t *testing.T) {
	build := func(days int) *tsexplain.Relation {
		b := tsexplain.NewBuilder("s", "d", []string{"cat"}, []string{"v"})
		var labels []string
		for i := 0; i < days; i++ {
			labels = append(labels, fmt.Sprintf("%03d", i))
		}
		b.SetTimeOrder(labels)
		for i := 0; i < days; i++ {
			a, c := 100.0, 100.0
			if i <= 20 {
				a += 10 * float64(i)
			} else {
				a += 200
				c += 12 * float64(i-20)
			}
			_ = b.Append(labels[i], []string{"a"}, []float64{a})
			_ = b.Append(labels[i], []string{"b"}, []float64{c})
		}
		r, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	inc, first, err := tsexplain.NewIncremental(build(30), tsexplain.Query{
		Measure: "v", Agg: tsexplain.Sum,
	}, tsexplain.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if first.K < 1 {
		t.Fatal("no initial result")
	}
	full := build(40)
	res, err := inc.AppendRows(full.RowBatch(full.RowsByTime(), 30, 40))
	if err != nil {
		t.Fatal(err)
	}
	cuts := res.Cuts()
	if cuts[len(cuts)-1] != 39 {
		t.Errorf("updated cuts %v should reach 39", cuts)
	}
	found := false
	for _, c := range cuts {
		if c >= 19 && c <= 22 {
			found = true
		}
	}
	if !found {
		t.Errorf("cuts %v miss the regime change at ≈20", cuts)
	}
}

func TestPublicEngineReuse(t *testing.T) {
	rel, err := tsexplain.ReadCSV(strings.NewReader(covidCSV()), tsexplain.CSVSpec{
		TimeCol:  "date",
		DimCols:  []string{"state"},
		MeasCols: []string{"cases"},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := tsexplain.NewEngine(rel, tsexplain.Query{Measure: "cases", Agg: tsexplain.Sum}, tsexplain.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := eng.Explain()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := eng.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(r1.Cuts()) != fmt.Sprint(r2.Cuts()) {
		t.Errorf("repeated Explain disagrees: %v vs %v", r1.Cuts(), r2.Cuts())
	}
	// The second run should be served almost entirely from cache.
	if r2.Stats.CASolves != r1.Stats.CASolves {
		t.Errorf("second run re-solved segments: %d vs %d", r2.Stats.CASolves, r1.Stats.CASolves)
	}
	top, err := eng.TopExplanations(0, rel.NumTimestamps()-1)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) == 0 {
		t.Error("TopExplanations empty")
	}
}
