// Command datagen exports one of the built-in simulated datasets — or a
// generated synthetic scenario — as CSV on stdout, so the CSV path of
// cmd/tsexplain, the catalog upload API, and external tools can be
// exercised against the same data the experiments use.
//
//	go run ./cmd/datagen -dataset liquor > liquor.csv
//	go run ./cmd/tsexplain -csv liquor.csv -time date \
//	    -dims "Bottle Volume (ml),Pack,Category Name,Vendor Name" \
//	    -measure "Bottles Sold"
//
// The high-cardinality scenario behind the approximate-mode benchmark
// (~52k candidate conjunctions at the defaults) is generated with:
//
//	go run ./cmd/datagen -scenario highcard -manifest highcard.json > highcard.csv
//
// The taxonomy scenario behind the hierarchy benchmark — a three-level
// ~50k-leaf taxonomy plus two numeric columns for range binning — is
// generated with:
//
//	go run ./cmd/datagen -scenario taxonomy -manifest taxonomy.json > taxonomy.csv
//
// The optional -manifest file is a ready-to-upload catalog manifest
// (POST /api/datasets) with approximate-mode defaults — and, for the
// taxonomy scenario, the hierarchy and range-bin declarations — included.
//
// The paper's synthetic benchmark (Section 4.2.1: categories with
// piecewise-linear trends and Gaussian noise) is generated with:
//
//	go run ./cmd/datagen -scenario synth -n 100 -seed 1 -snr 35 -categories 3 > synth.csv
//
// Every scenario prints its ground-truth cuts on stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/catalog"
	"repro/internal/datasets"
	"repro/internal/relation"
	"repro/internal/synth"
)

func main() {
	name := flag.String("dataset", "covid", "covid, covid-daily, sp500, liquor, vax-deaths")
	scenario := flag.String("scenario", "", "synthetic scenario instead of -dataset: highcard, taxonomy, synth")
	users := flag.Int("users", 0, "highcard: user cardinality (0: generator default)")
	regions := flag.Int("regions", 0, "highcard: region cardinality (0: generator default)")
	scale := flag.Int("scale", 1, "highcard: multiply the user cardinality; rows and candidate conjunctions grow linearly (-scale 20 is ~1M rows and ~1M candidates at the defaults)")
	cats := flag.Int("cats", 0, "taxonomy: category cardinality (0: generator default)")
	subcats := flag.Int("subcats", 0, "taxonomy: subcategories per category (0: generator default)")
	leaves := flag.Int("leaves", 0, "taxonomy: leaves per subcategory (0: generator default)")
	snr := flag.Float64("snr", 35, "synth: noise level in dB (0 = clean)")
	categories := flag.Int("categories", 0, "synth: number of categories (0: generator default, 3)")
	n := flag.Int("n", 0, "scenario series length (0: generator default)")
	seed := flag.Int64("seed", 42, "scenario generator seed")
	manifest := flag.String("manifest", "", "highcard, taxonomy: also write a catalog manifest JSON to this path")
	flag.Parse()

	var (
		rel     *relation.Relation
		m       *catalog.Manifest
		summary string
		err     error
	)
	switch *scenario {
	case "":
		d := builtin(*name)
		if d == nil {
			fmt.Fprintf(os.Stderr, "datagen: unknown dataset %q\n", *name)
			os.Exit(2)
		}
		rel = d.Rel
		summary = fmt.Sprintf("dataset=%s rows=%d n=%d measure=%q explain-by=%v",
			d.Name, d.Rel.NumRows(), d.Rel.NumTimestamps(), d.Measure, d.ExplainBy)
	case "highcard":
		var d *synth.HighCardDataset
		d, err = synth.HighCardinality(synth.ScaleHighCard(synth.HighCardParams{
			Users: *users, Regions: *regions, N: *n, Seed: *seed,
		}, *scale))
		if err == nil {
			rel, m = d.Rel, highCardManifest()
			summary = fmt.Sprintf("scenario=highcard rows=%d n=%d pairs=%d ground-truth-cuts=%v",
				d.Rel.NumRows(), d.Rel.NumTimestamps(), d.Pairs, d.Cuts)
		}
	case "taxonomy":
		var d *synth.TaxonomyDataset
		d, err = synth.Taxonomy(synth.TaxonomyParams{
			Cats: *cats, SubcatsPerCat: *subcats, LeavesPerSubcat: *leaves, N: *n, Seed: *seed,
		})
		if err == nil {
			rel, m = d.Rel, taxonomyManifest()
			summary = fmt.Sprintf("scenario=taxonomy rows=%d n=%d leaves=%d ground-truth-cuts=%v",
				d.Rel.NumRows(), d.Rel.NumTimestamps(), d.Leaves, d.Cuts)
		}
	case "synth":
		var d *synth.Dataset
		d, err = synth.Generate(synth.Params{N: *n, Seed: *seed, SNRdB: *snr, Categories: *categories})
		if err == nil {
			rel = d.Rel
			summary = fmt.Sprintf("scenario=synth rows=%d n=%d categories=%d ground-truth-cuts=%v (K=%d)",
				d.Rel.NumRows(), d.Rel.NumTimestamps(), len(d.Categories), d.Cuts, d.K)
		}
	default:
		fmt.Fprintf(os.Stderr, "datagen: unknown scenario %q\n", *scenario)
		os.Exit(2)
	}
	if err == nil {
		err = emit(rel, m, *manifest)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, summary)
}

// builtin returns the named simulated dataset, or nil for an unknown name.
func builtin(name string) *datasets.Dataset {
	switch name {
	case "covid", "covid-total":
		return datasets.CovidTotal()
	case "covid-daily":
		return datasets.CovidDaily()
	case "sp500":
		return datasets.SP500()
	case "liquor":
		return datasets.Liquor()
	case "vax-deaths":
		return datasets.VaxDeaths()
	}
	return nil
}

// emit writes rel as CSV on stdout and, when both a manifest and a path
// are given, the manifest as indented JSON to that path.
func emit(rel *relation.Relation, m *catalog.Manifest, manifestPath string) error {
	if err := relation.WriteCSV(os.Stdout, rel); err != nil {
		return err
	}
	if m == nil || manifestPath == "" {
		return nil
	}
	enc, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(manifestPath, append(enc, '\n'), 0o644)
}

func highCardManifest() *catalog.Manifest {
	return &catalog.Manifest{
		Name:       "highcard",
		TimeCol:    "T",
		DimCols:    []string{"user", "region"},
		MeasureCol: "events",
		Agg:        "SUM",
		ExplainBy:  []string{"user", "region"},
		MaxOrder:   2,
		Approx:     &catalog.ApproxDefaults{MaxCandidates: 4096, Epsilon: 0.05},
	}
}

func taxonomyManifest() *catalog.Manifest {
	levels := synth.TaxonomyLevels()
	return &catalog.Manifest{
		Name:       "taxonomy",
		TimeCol:    "T",
		DimCols:    levels,
		MeasureCol: "sales",
		Agg:        "SUM",
		ExplainBy:  append(append([]string(nil), levels...), "price_bin"),
		MaxOrder:   2,
		Approx:     &catalog.ApproxDefaults{MaxCandidates: 4096, Epsilon: 0.05},
		Hierarchies: []catalog.HierarchySpec{
			{Name: "taxonomy", Levels: levels},
		},
		RangeBins: []catalog.RangeBinSpec{
			{Column: "price", Bins: 8, As: "price_bin"},
		},
	}
}
