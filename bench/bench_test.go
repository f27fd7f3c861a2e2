package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{0, 0, false}, {99, 0, false}, {100, 90, true}, {199, 90, true}, {200, 95, true},
		{999, 95, true}, {1000, 99, true}, {9999, 99, true}, {10000, 99.9, true},
	} {
		p, ok := tailPercentile(tc.n)
		if p != tc.p || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", tc.n, p, ok, tc.p, tc.ok)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 4, 1.5, 5}, [3]float64{1.25, 3, 4.5}},
		{[]float64{10, 20, 30}, [3]float64{10, 20, 30}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := percentile(xs, 90); got != 4.6 {
		t.Errorf("p90 = %g, want 4.6", got)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

func TestCompareRunsVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		a, b  []float64
		lower bool
		bound float64
		want  string
	}{
		{"same runs", base, base, true, 0.1, verdictUnchanged},
		{"within bound", base, scale(base, 1.05), true, 0.1, verdictUnchanged},
		{"latency regressed", base, scale(base, 1.2), true, 0.1, verdictWorse},
		{"latency improved", base, scale(base, 0.8), true, 0.1, verdictBetter},
		{"throughput improved", base, scale(base, 1.2), false, 0.1, verdictBetter},
		{"throughput regressed", base, scale(base, 0.8), false, 0.1, verdictWorse},
		{"too noisy to tell", []float64{50, 150, 60, 140, 100, 70, 130}, []float64{55, 145, 65, 135, 105, 75, 125}, true, 0.1, verdictUnresolved},
	} {
		c := compareRuns(tc.a, tc.b, tc.lower, tc.bound)
		if c.Verdict != tc.want {
			t.Errorf("%s: verdict %s, want %s (%+v)", tc.name, c.Verdict, tc.want, c)
		}
	}
	// Pairs won: b beats a in every pair when it is uniformly faster.
	c := compareRuns(base, scale(base, 0.8), true, 0.1)
	if c.WinsB != len(base) || c.WinsA != 0 {
		t.Errorf("wins %d:%d, want 0:%d", c.WinsA, c.WinsB, len(base))
	}
}

// TestWorkloadsTiny runs every workload at a tiny scale against the real
// library and server, with every correctness check on: two covid pipeline
// iterations, 50 explore requests over covid and stream, and 20 appends
// followed by the golden check of the fully ingested dataset. The
// pipeline and ingest runs are traced.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts the server")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain to build the server with")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildServer(root, filepath.Join(t.TempDir(), "tsexplain-server"))
	if err != nil {
		t.Fatal(err)
	}
	run := func(name string, p runParams) {
		t.Helper()
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		p.root, p.work, p.seed, p.seconds = root, t.TempDir(), 3, 60
		var r *runResult
		switch w.kind {
		case kindPipeline:
			if err = preparePipeline(w, p.work); err == nil {
				r, err = runPipeline(w, p)
			}
		case kindExplore:
			r, err = runExplore(w, p, bin)
		case kindIngest:
			r, err = runIngest(w, p, bin)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var out bytes.Buffer
		line, err := report(&out, spec, w, r, t.TempDir(), filepath.Join(t.TempDir(), "trace.json"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
			t.Fatalf("%s: correct=%v attempted=%d failed=%d\n%s", name, line.Correct, line.Attempted, line.Failed, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last driverLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("%s: last line is not the result object: %v", name, err)
		}
		want := spec.EndToEnd
		if p.trace {
			want = spec.PerLayer
		}
		if len(last.Metrics) != len(want) {
			t.Errorf("%s: %d metrics, want %d", name, len(last.Metrics), len(want))
		}
		for _, m := range want {
			if _, ok := last.Metrics[m.Name]; !ok {
				t.Errorf("%s: metric %s missing", name, m.Name)
			}
		}
		if name == "pipeline-covid" {
			// The spans must account for nearly all of each answer.
			cold := median(r.Samples["cold"])
			if u := r.Layer["core.unattributed_ms"]; u > 0.05*cold {
				t.Errorf("unattributed %.3f ms of a %.3f ms cold answer", u, cold)
			}
			if r.Layer["cascading.solves"] == 0 || r.Layer["trace.overhead_pct"] <= 0 {
				t.Errorf("per-layer metrics missing: %v", r.Layer)
			}
		}
	}
	run("pipeline-covid", runParams{maxOps: 2, trace: true})
	run("serve-explore", runParams{maxOps: 25, exploreDatasets: []string{"covid", "stream"}})
	run("serve-ingest", runParams{maxOps: 20, trace: true})
}
