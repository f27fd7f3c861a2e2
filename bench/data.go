package main

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/relation"
)

// dataFile is one generated input at rest: the CSV a user would upload
// and the catalog manifest that describes it. Golden names the golden
// corpus entry (testdata/golden/<golden>_opt_k*.json) the dataset's
// answers must match; empty when the dataset is not pinned.
type dataFile struct {
	CSV      string           `json:"csv"`
	Manifest catalog.Manifest `json:"manifest"`
	Golden   string           `json:"golden,omitempty"`
}

// builtin returns the generator for one of the repository's simulated
// datasets by its short name.
func builtin(name string) (*datasets.Dataset, error) {
	switch name {
	case "liquor":
		return datasets.Liquor(), nil
	case "covid":
		return datasets.CovidTotal(), nil
	case "sp500":
		return datasets.SP500(), nil
	case "stream":
		return datasets.Stream(datasets.StreamDays), nil
	}
	return nil, fmt.Errorf("unknown dataset %q", name)
}

// goldenPinned lists the datasets the golden corpus pins in the optimized
// configuration at the benchmark's follow-up Ks.
var goldenPinned = map[string]bool{"liquor": true, "covid": true}

// manifestFor describes d as a catalog dataset named catName.
func manifestFor(catName string, d *datasets.Dataset) catalog.Manifest {
	return catalog.Manifest{
		Name:         catName,
		TimeCol:      d.Rel.TimeName(),
		DimCols:      d.Rel.DimNames()[:d.Rel.NumBaseDims()],
		MeasureCol:   d.Measure,
		Agg:          d.Agg.String(),
		ExplainBy:    d.ExplainBy,
		MaxOrder:     d.MaxOrder,
		SmoothWindow: d.SmoothWindow,
	}
}

// writeDataset writes the whole of the named built-in dataset to
// dir/<catName>.csv.
func writeDataset(dir, name, catName string) (dataFile, error) {
	d, err := builtin(name)
	if err != nil {
		return dataFile{}, err
	}
	path := filepath.Join(dir, catName+".csv")
	f, err := os.Create(path)
	if err != nil {
		return dataFile{}, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := relation.WriteCSV(w, d.Rel); err != nil {
		f.Close()
		return dataFile{}, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return dataFile{}, err
	}
	if err := f.Close(); err != nil {
		return dataFile{}, err
	}
	df := dataFile{CSV: path, Manifest: manifestFor(catName, d)}
	if goldenPinned[name] {
		df.Golden = name
	}
	return df, nil
}

// ingestPlan is the serve-ingest input: covid's first days as an upload,
// and every later day as append batches in time order.
type ingestPlan struct {
	Upload  dataFile
	Batches [][]byte // NDJSON append bodies, in order
	// TimestampsAfter[i] is the series length once batch i has landed.
	TimestampsAfter []int
}

// appendLine is one NDJSON row of the append endpoint.
type appendLine struct {
	Time    string            `json:"time"`
	Dims    map[string]string `json:"dims"`
	Measure float64           `json:"measure"`
}

// planIngest writes covid's first prefixDays days to dir as an upload and
// cuts every later day into two append batches. The cut inside each day
// is drawn from rng, so seeds vary the batch sizes while the data that
// finally lands — and hence the final answer — stays the same.
func planIngest(dir, catName string, prefixDays int, rng *rand.Rand) (*ingestPlan, error) {
	d := datasets.CovidTotal()
	rel := d.Rel
	m := rel.MeasureIndex(d.Measure)
	path := filepath.Join(dir, catName+".csv")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := csv.NewWriter(f)
	nd := rel.NumBaseDims()
	header := append([]string{rel.TimeName()}, rel.DimNames()[:nd]...)
	header = append(header, d.Measure)
	if err := w.Write(header); err != nil {
		f.Close()
		return nil, err
	}
	rec := make([]string, len(header))
	// Row order within each day matches the full relation's, so every
	// per-day sum adds the same values in the same order and the final
	// answer is bit-identical to the golden corpus.
	for row := 0; row < rel.NumRows(); row++ {
		if rel.TimeIndex(row) >= prefixDays {
			continue
		}
		rec[0] = rel.TimeLabel(rel.TimeIndex(row))
		for j := 0; j < nd; j++ {
			rec[1+j] = rel.DimValue(j, row)
		}
		rec[1+nd] = strconv.FormatFloat(rel.MeasureValue(m, row), 'g', -1, 64)
		if err := w.Write(rec); err != nil {
			f.Close()
			return nil, err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}

	plan := &ingestPlan{Upload: dataFile{CSV: path, Manifest: manifestFor(catName, d), Golden: "covid"}}
	byTime := rel.RowsByTime()
	dimNames := rel.DimNames()[:nd]
	for t := prefixDays; t < rel.NumTimestamps(); t++ {
		rows := byTime[t]
		cut := 1 + rng.Intn(len(rows)-1)
		for _, part := range [][]int{rows[:cut], rows[cut:]} {
			var body bytes.Buffer
			enc := json.NewEncoder(&body)
			for _, row := range part {
				line := appendLine{
					Time:    rel.TimeLabel(t),
					Dims:    make(map[string]string, nd),
					Measure: rel.MeasureValue(m, row),
				}
				for j, name := range dimNames {
					line.Dims[name] = rel.DimValue(j, row)
				}
				if err := enc.Encode(line); err != nil {
					return nil, err
				}
			}
			plan.Batches = append(plan.Batches, body.Bytes())
			plan.TimestampsAfter = append(plan.TimestampsAfter, t+1)
		}
	}
	return plan, nil
}

// queryOf returns the engine query and options a manifest implies, the
// same ones the server derives for a default explain of the dataset.
func queryOf(m catalog.Manifest) (core.Query, core.Options, error) {
	agg, err := m.AggFunc()
	if err != nil {
		return core.Query{}, core.Options{}, err
	}
	opts := core.DefaultOptions()
	opts.MaxOrder = m.EffectiveMaxOrder()
	opts.SmoothWindow = m.SmoothWindow
	return core.Query{Measure: m.MeasureCol, Agg: agg, ExplainBy: m.ExplainBy}, opts, nil
}

// The golden corpus shape (see golden_test.go at the repository root).
// Floats are strconv 'g' -1 strings so comparison is bit-exact.
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
	Predicates string   `json:"predicates"`
	Effect     string   `json:"effect"`
	Gamma      string   `json:"gamma"`
	Path       []string `json:"path,omitempty"`
}

func g64(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func (d goldenDoc) encode() []byte {
	out, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and ints always marshal
	}
	return append(out, '\n')
}

// goldenFromResult renders an engine result in the golden shape.
func goldenFromResult(name string, res *core.Result) goldenDoc {
	doc := goldenDoc{Dataset: name, Mode: "opt", K: res.K, Cuts: res.Cuts(), Variance: g64(res.TotalVariance)}
	for _, seg := range res.Segments {
		gs := goldenSegment{Start: seg.StartLabel, End: seg.EndLabel}
		for _, e := range seg.Top {
			gs.Top = append(gs.Top, goldenTop{Predicates: e.Predicates, Effect: e.Effect.String(), Gamma: g64(e.Gamma), Path: e.Path})
		}
		doc.Segments = append(doc.Segments, gs)
	}
	return doc
}

// explainBody is the part of the server's /api/explain response the
// benchmark reads.
type explainBody struct {
	K        int     `json:"k"`
	Degraded bool    `json:"degraded"`
	Variance float64 `json:"totalVariance"`
	Latency  struct {
		Cascading    float64 `json:"cascading"`
		Segmentation float64 `json:"segmentation"`
	} `json:"latencyMs"`
	Segments []struct {
		Start string `json:"start"`
		End   string `json:"end"`
		Top   []struct {
			Predicates string   `json:"predicates"`
			Effect     string   `json:"effect"`
			Gamma      float64  `json:"gamma"`
			Path       []string `json:"path"`
		} `json:"top"`
	} `json:"segments"`
}

// goldenFromResponse renders a server explain answer in the golden
// shape; pos maps time labels to series positions.
func goldenFromResponse(name string, b *explainBody, pos map[string]int) (goldenDoc, error) {
	doc := goldenDoc{Dataset: name, Mode: "opt", K: b.K, Variance: g64(b.Variance)}
	for i, seg := range b.Segments {
		start, ok1 := pos[seg.Start]
		end, ok2 := pos[seg.End]
		if !ok1 || !ok2 {
			return doc, fmt.Errorf("segment %q..%q has unknown labels", seg.Start, seg.End)
		}
		if i == 0 {
			doc.Cuts = append(doc.Cuts, start)
		}
		doc.Cuts = append(doc.Cuts, end)
		gs := goldenSegment{Start: seg.Start, End: seg.End}
		for _, e := range seg.Top {
			gs.Top = append(gs.Top, goldenTop{Predicates: e.Predicates, Effect: e.Effect, Gamma: g64(e.Gamma), Path: e.Path})
		}
		doc.Segments = append(doc.Segments, gs)
	}
	return doc, nil
}

// goldenSet holds the golden corpus files for one dataset, by K.
type goldenSet map[int][]byte

// goldenKs are the Ks the golden corpus pins.
var goldenKs = []int{3, 5, 8}

func loadGolden(root, name string) (goldenSet, error) {
	g := make(goldenSet)
	for _, k := range goldenKs {
		b, err := os.ReadFile(filepath.Join(root, "testdata", "golden", fmt.Sprintf("%s_opt_k%d.json", name, k)))
		if err != nil {
			return nil, fmt.Errorf("golden corpus: %w", err)
		}
		g[k] = b
	}
	return g, nil
}

// check compares an answer at K=k with the golden file.
func (g goldenSet) check(k int, doc goldenDoc) error {
	want, ok := g[k]
	if !ok {
		return nil
	}
	if got := doc.encode(); !bytes.Equal(got, want) {
		return fmt.Errorf("%s k=%d differs from the golden corpus:\n--- want\n%s--- got\n%s", doc.Dataset, k, want, got)
	}
	return nil
}
