// Command bench is the repository's benchmark: four frozen, seeded
// workloads that drive TSExplain only through its public entry points —
// the catalog/explain/core libraries for the offline pipeline, and the
// unmodified cmd/tsexplain-server binary over loopback HTTP for serving.
// Every run checks its answers (against testdata/golden where the corpus
// pins them), prints its end-to-end metrics, writes a JSON result file,
// and ends with one JSON line for tooling. A traced run (-trace 1) times
// every call the harness makes into a layer and reports per-layer
// metrics instead.
//
// Build and run it through bench/run.sh from the repository root:
//
//	bash bench/run.sh                                          # all workloads
//	bash bench/run.sh -workload pipeline-liquor -seed 3 -seconds 15 -trace 0
//	bash bench/run.sh -compare DIR_A DIR_B                     # two result sets
//
// BENCHMARK.json at the repository root names the workloads and fixes
// each metric's unit and regression bound; bench/README.md explains them.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed a run uses when none is given.
const defaultSeed = 1

func main() {
	var (
		workloadFlag = flag.String("workload", "", "workload to run (default: all, one after another)")
		seed         = flag.Int64("seed", defaultSeed, "workload seed; the same seed gives the same inputs")
		seconds      = flag.Float64("seconds", 15, "length of the measured window of each run, in seconds")
		traceFlag    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
		traceOut     = flag.String("trace-out", "", "span file of a traced run (default .bench_build/trace/<workload>-seed<n>.json)")
		root         = flag.String("root", ".", "repository root")
		outDir       = flag.String("out", "", "directory for result files (default .bench_build/results)")
		compare      = flag.Bool("compare", false, "compare two directories of result files: -compare DIR_A DIR_B")
		child        = flag.Bool("child", false, "internal: run one pipeline workload in this process")
		work         = flag.String("work", "", "internal: the run's scratch directory")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result directories")
			os.Exit(2)
		}
		worse, err := runCompare(os.Stdout, *root, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	p := runParams{root: *root, work: *work, seed: *seed, seconds: *seconds, trace: *traceFlag == 1}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		os.Exit(2)
	}
	if *child {
		w, err := findWorkload(*workloadFlag)
		if err == nil {
			var r *runResult
			if r, err = runPipeline(w, p); err == nil {
				err = json.NewEncoder(os.Stdout).Encode(r)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	spec, err := loadSpec(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	todo := workloads
	if *workloadFlag != "" {
		w, err := findWorkload(*workloadFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(2)
		}
		todo = []workload{*w}
	}
	if *outDir == "" {
		*outDir = filepath.Join(*root, buildDir, "results")
	}
	ok := true
	for i := range todo {
		w := &todo[i]
		r, err := runWorkload(w, p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		line, err := report(os.Stdout, spec, w, r, *outDir, *traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		ok = ok && line.Correct && line.Failed == 0
	}
	if !ok {
		os.Exit(1)
	}
}

// buildDir is where everything a build or run leaves behind goes,
// relative to the repository root.
const buildDir = ".bench_build"

// Workload kinds.
const (
	kindPipeline = "pipeline"
	kindExplore  = "explore"
	kindIngest   = "ingest"
)

// workload is one frozen benchmark workload. Why each exists is recorded
// in BENCHMARK.json and bench/README.md.
type workload struct {
	name    string
	kind    string
	dataset string // pipeline workloads: the built-in dataset answered
	// answer and other name the sample classes behind answer_p50_ms and
	// other_p50_ms.
	answer, other []string
	// setups is how many times a run performs its set-up; setup_s is the
	// median. Cheap set-ups repeat more so the median is stable.
	setups int
}

var workloads = []workload{
	{name: "pipeline-liquor", kind: kindPipeline, dataset: "liquor",
		answer: []string{"cold"}, other: []string{"restore"}, setups: 3},
	{name: "pipeline-covid", kind: kindPipeline, dataset: "covid",
		answer: []string{"cold"}, other: []string{"restore"}, setups: 9},
	{name: "serve-explore", kind: kindExplore,
		answer: []string{"explain"}, other: []string{"slice", "diff"}, setups: 3},
	{name: "serve-ingest", kind: kindIngest,
		answer: []string{"read"}, other: []string{"append"}, setups: 9},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// runParams configures one run. maxOps caps a run's operations (pipeline
// iterations, requests per explore client, append batches) for the
// package's tests; 0 leaves the run bounded by seconds alone.
type runParams struct {
	root    string
	work    string
	seed    int64
	seconds float64
	trace   bool
	maxOps  int
	// exploreDatasets overrides serve-explore's dataset mix (tests).
	exploreDatasets []string
}

// runResult is what one run measured. Samples are per-operation
// latencies in ms by class; Layer holds per-layer metrics (traced runs).
type runResult struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Trace     bool                 `json:"trace"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Errors    []string             `json:"errors,omitempty"`
	WindowS   float64              `json:"window_s"`
	SetupS    []float64            `json:"setup_s"`
	PeakRSSMB float64              `json:"peak_rss_mb"`
	Samples   map[string][]float64 `json:"samples_ms"`
	// Rates are completed operations per second over the window's
	// intervals: each pipeline iteration, each whole second of a serve
	// window. Their median is throughput_ops_s, which a burst of
	// contention from outside the benchmark shifts far less than the
	// window's mean rate.
	Rates []float64          `json:"rates"`
	Layer map[string]float64 `json:"layer,omitempty"`
	Notes map[string]float64 `json:"notes,omitempty"`
	Spans []span             `json:"spans,omitempty"`
}

func newResult(w *workload, p runParams) *runResult {
	return &runResult{
		Workload: w.name, Seed: p.seed, Trace: p.trace,
		Samples: make(map[string][]float64), Layer: make(map[string]float64), Notes: make(map[string]float64),
	}
}

// fail records one failed operation; the first few messages are kept.
func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 5 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// ops is the number of measured operations that completed.
func (r *runResult) ops() int {
	n := 0
	for _, s := range r.Samples {
		n += len(s)
	}
	return n
}

// runWorkload generates the workload's inputs and runs it: pipeline
// workloads in a fresh child process at GOMAXPROCS=1 (so peak RSS and GC
// state are the workload's own), serve workloads against a fresh server
// process driven from this one.
func runWorkload(w *workload, p runParams) (*runResult, error) {
	if err := os.MkdirAll(filepath.Join(p.root, buildDir), 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(filepath.Join(p.root, buildDir), "work-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	p.work = work
	if w.kind != kindPipeline {
		bin, err := buildServer(p.root, filepath.Join(p.root, buildDir, "tsexplain-server"))
		if err != nil {
			return nil, err
		}
		runtime.GOMAXPROCS(1)
		if w.kind == kindExplore {
			return runExplore(w, p, bin)
		}
		return runIngest(w, p, bin)
	}

	if err := preparePipeline(w, work); err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", w.name, "-root", p.root, "-work", work,
		"-seed", fmt.Sprint(p.seed), "-seconds", fmt.Sprint(p.seconds)}
	if p.trace {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	childSysProc(cmd)
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("pipeline child: %w", err)
	}
	var r runResult
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("pipeline child output: %w", err)
	}
	return &r, nil
}

// more reports whether a load loop that has sent n operations sends
// another: until deadline, or until maxOps when a test sets it.
func (p runParams) more(n int, deadline time.Time) bool {
	if p.maxOps > 0 {
		return n < p.maxOps
	}
	return time.Now().Before(deadline)
}

// benchSpec is BENCHMARK.json: the benchmark's declared metrics, their
// units and regression bounds.
type benchSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []struct{}   `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// metric is one reported value with its sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// endToEnd computes the end-to-end metrics of a run, by name.
func endToEnd(w *workload, r *runResult) map[string]metric {
	pool := func(classes []string) []float64 {
		var xs []float64
		for _, c := range classes {
			xs = append(xs, r.Samples[c]...)
		}
		return xs
	}
	answer, other := pool(w.answer), pool(w.other)
	m := map[string]metric{
		"setup_s":          {Value: median(r.SetupS), N: len(r.SetupS)},
		"peak_rss_mb":      {Value: r.PeakRSSMB, N: 1},
		"throughput_ops_s": {Value: median(r.Rates), N: r.ops()},
		"answer_p50_ms":    {Value: median(answer), N: len(answer)},
		"other_p50_ms":     {Value: median(other), N: len(other)},
	}
	return m
}

// resultFile is the JSON document each run writes.
type resultFile struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	WindowS   float64            `json:"window_s"`
	SetupS    []float64          `json:"setup_s"`
	Metrics   map[string]metric  `json:"metrics"`
	Classes   map[string]classTS `json:"classes"`
	Notes     map[string]float64 `json:"notes,omitempty"`
}

// classTS summarizes one class's latency samples: the median and the
// highest tail percentile with at least ten samples beyond it.
type classTS struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50_ms"`
	TailP float64 `json:"tail_p,omitempty"`
	Tail  float64 `json:"tail_ms,omitempty"`
}

// driverLine is the last line a run prints.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints a run's metrics as "workload metric value unit (n=…)"
// lines, writes its result file (and span file, when traced), and prints
// the closing JSON line: the end-to-end metrics of an untraced run, the
// per-layer metrics of a traced one, each as BENCHMARK.json declares it.
func report(out io.Writer, spec *benchSpec, w *workload, r *runResult, outDir, traceOut string) (*driverLine, error) {
	e2e := endToEnd(w, r)
	rf := resultFile{
		Workload: r.Workload, Seed: r.Seed, Trace: r.Trace, Attempted: r.Attempted, Failed: r.Failed,
		WindowS: r.WindowS, SetupS: r.SetupS, Metrics: make(map[string]metric), Classes: make(map[string]classTS), Notes: r.Notes,
	}
	classes := make([]string, 0, len(r.Samples))
	for c := range r.Samples {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		xs := r.Samples[c]
		ts := classTS{N: len(xs), P50: median(xs)}
		if p, ok := tailPercentile(len(xs)); ok {
			ts.TailP, ts.Tail = p, percentile(xs, p)
			fmt.Fprintf(out, "%s %s_p50 %.4f ms (n=%d), p%g %.4f ms\n", w.name, c, ts.P50, ts.N, p, ts.Tail)
		} else {
			fmt.Fprintf(out, "%s %s_p50 %.4f ms (n=%d)\n", w.name, c, ts.P50, ts.N)
		}
		rf.Classes[c] = ts
	}

	line := &driverLine{Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]driverValue)}
	for _, ms := range spec.EndToEnd {
		m, ok := e2e[ms.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value == 0 {
			r.Errors = append(r.Errors, fmt.Sprintf("metric %s was not measured", ms.Name))
			m.Value = 0
		}
		m.Unit = ms.Unit
		fmt.Fprintf(out, "%s %s %.6g %s (n=%d)\n", w.name, ms.Name, m.Value, ms.Unit, m.N)
		rf.Metrics[ms.Name] = m
		if !r.Trace {
			line.Metrics[ms.Name] = driverValue{Value: m.Value, Unit: ms.Unit}
		}
	}
	if r.Trace {
		for _, ms := range spec.PerLayer {
			v, ok := r.Layer[ms.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			fmt.Fprintf(out, "%s %s %.6g %s\n", w.name, ms.Name, v, ms.Unit)
			rf.Metrics[ms.Name] = metric{Value: v, Unit: ms.Unit}
			line.Metrics[ms.Name] = driverValue{Value: v, Unit: ms.Unit}
		}
		if w.kind == kindPipeline {
			printLayerReport(out, w.name, r.Spans)
		} else {
			printServeReport(out, w.name, r)
		}
		if len(r.Spans) > 0 {
			if traceOut == "" {
				traceOut = filepath.Join(filepath.Dir(outDir), "trace", fmt.Sprintf("%s-seed%d.json", w.name, r.Seed))
			}
			if err := os.MkdirAll(filepath.Dir(traceOut), 0o755); err != nil {
				return nil, err
			}
			if err := writeSpans(traceOut, r.Spans); err != nil {
				return nil, err
			}
			fmt.Fprintf(out, "%s spans written to %s\n", w.name, traceOut)
		}
	}
	for _, e := range r.Errors {
		fmt.Fprintf(out, "%s FAILED: %s\n", w.name, strings.TrimSpace(e))
	}
	line.Correct = r.Failed == 0 && r.Attempted > 0 && len(r.Errors) == 0
	rf.Correct, rf.Errors = line.Correct, r.Errors

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	name := fmt.Sprintf("%s-seed%d.json", w.name, r.Seed)
	if r.Trace {
		name = fmt.Sprintf("%s-seed%d-trace.json", w.name, r.Seed)
	}
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(outDir, name), append(b, '\n'), 0o644); err != nil {
		return nil, err
	}
	enc, err := json.Marshal(line)
	if err != nil {
		return nil, fmt.Errorf("encoding the result line: %w", err)
	}
	fmt.Fprintf(out, "%s\n", enc)
	return line, nil
}
