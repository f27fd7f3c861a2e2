package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/catalog"
)

// captureRun runs the CLI with the given input files and k, returning what
// it prints.
func captureRun(t *testing.T, csvPath, manifestPath string, k int) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	stdout := os.Stdout
	os.Stdout = w
	runErr := run(csvPath, "", manifestPath, "", "", "", "SUM", "", "", k, 3, 3, 0, false, false)
	os.Stdout = stdout
	w.Close()
	printed := <-out
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	return printed
}

// TestManifestRunBinsLikeTheCatalog: run on a catalog's own manifest.json
// and data.csv, the CLI derives the manifest's range-bin column with the
// edges the upload fitted, although appended rows lie far outside them.
func TestManifestRunBinsLikeTheCatalog(t *testing.T) {
	dir := t.TempDir()
	c, err := catalog.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var csv strings.Builder
	csv.WriteString("day,state,cases\n")
	states := []string{"CA", "NY", "TX", "WA"}
	for d := 1; d <= 10; d++ {
		for s, st := range states {
			fmt.Fprintf(&csv, "2021-04-%02d,%s,%d\n", d, st, 11+10*s+d-1)
		}
	}
	m := catalog.Manifest{
		Name: "binned", TimeCol: "day", DimCols: []string{"state"}, MeasureCol: "cases",
		RangeBins: []catalog.RangeBinSpec{{Column: "cases", Bins: 4}},
	}
	if _, err := c.Create(m, strings.NewReader(csv.String())); err != nil {
		t.Fatal(err)
	}
	var times []string
	var dims [][]string
	var meas [][]float64
	for d := 11; d <= 20; d++ {
		for s, st := range states {
			times = append(times, fmt.Sprintf("2021-04-%02d", d))
			dims = append(dims, []string{st})
			meas = append(meas, []float64{float64(1000*(s+1) + d)})
		}
	}
	if err := c.AppendRows("binned", times, dims, meas); err != nil {
		t.Fatal(err)
	}

	out := captureRun(t, filepath.Join(dir, "binned", "data.csv"), filepath.Join(dir, "binned", "manifest.json"), 2)
	fitted := []string{"[-inf,21)", "[21,31)", "[31,41)", "[41,+inf)"}
	named := false
	for _, l := range fitted {
		named = named || strings.Contains(out, "cases_bin="+l)
	}
	if !named {
		t.Fatalf("CLI output names no cases_bin predicate over the fitted bins %v:\n%s", fitted, out)
	}
	for _, refit := range []string{"1011", "3011"} {
		if strings.Contains(out, refit) {
			t.Fatalf("CLI output names a bin edge %s that fitting over the appended rows would give:\n%s", refit, out)
		}
	}
}
