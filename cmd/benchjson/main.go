// Command benchjson runs the engine's benchmarks and emits machine-
// readable JSON, so the performance trajectory across PRs can be tracked
// by tooling instead of by eyeballing `go test -bench` output.
//
// Five modes:
//
//	-mode micro (default) runs the hot-path micro-benchmarks through
//	`go test -bench` and writes BENCH_engine.json (ns/op, B/op,
//	allocs/op per benchmark).
//
//	-mode streaming replays the 120-day streaming workload in-process,
//	measuring every update's latency through the O(delta) append path
//	(Incremental.AppendRows) against a fresh build (core.NewEngine +
//	Explain over the full snapshot), and writes BENCH_streaming.json with
//	per-update latencies and the rebuild/append speedup.
//
//	-mode catalog measures the warm-restart path on the liquor and stream
//	datasets staged in a temp on-disk catalog: cold start (CSV parse +
//	full engine build) vs snapshot save and snapshot restore (decode +
//	engine finish), and writes BENCH_catalog.json with the restore-vs-
//	rebuild speedup.
//
//	-mode approx runs the high-cardinality synthetic scenario (~52k
//	conjunctions) through the exact and the anytime approximate explain
//	paths on freshly built engines, measures the end-to-end explain
//	latency of each, verifies the approximate result against the exact
//	optimum per segment, and writes BENCH_approx.json with the speedup,
//	the reported error bound, and the measured error.
//
//	-mode hierarchy runs the taxonomy synthetic scenario (~50k leaves,
//	~52k candidates) through the exact and the subtree-pruned approximate
//	explain paths over the same hierarchy-declared universe, measures the
//	flat-vs-walk candidate ranking on a fresh universe, verifies the
//	approximate result per segment, and writes BENCH_hierarchy.json.
//
//	-mode bigdata stages a high-cardinality dataset scaled (-scale) past
//	the engine-pool memory budget (-budget-mb), snapshots it in the raw
//	arena layout, and serves a cold approximate-explain workload
//	(-requests) against the full HTTP stack: every request restores an
//	engine whose candidate arena is read off the memory-mapped snapshot.
//	BENCH_bigdata.json records the dataset/budget ratio, the
//	resident-vs-mapped split from the registry gauges, the latency
//	percentiles, and the serving-time peak heap.
//
// Every mode accepts -cpuprofile/-memprofile: micro mode forwards them to
// `go test`, the in-process modes profile the replay directly, so the
// exact workload a CI gate measures can be handed to `go tool pprof`.
//
// Usage:
//
//	go run ./cmd/benchjson [-bench regex] [-benchtime 2s] [-count 1] [-o BENCH_engine.json]
//	go run ./cmd/benchjson -mode streaming [-replays 7] [-o BENCH_streaming.json]
//	go run ./cmd/benchjson -mode catalog [-replays 5] [-o BENCH_catalog.json]
//	go run ./cmd/benchjson -mode approx [-replays 3] [-o BENCH_approx.json]
//	go run ./cmd/benchjson -mode hierarchy [-replays 3] [-o BENCH_hierarchy.json]
//	go run ./cmd/benchjson -mode bigdata [-scale 2] [-budget-mb 48] [-requests 96] [-o BENCH_bigdata.json]
//	go run ./cmd/benchjson -mode catalog -cpuprofile cat.pprof -memprofile cat.mprof
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/explain"
	"repro/internal/relation"
	"repro/internal/synth"
)

// defaultBench covers the precompute-dominated and solver-dominated hot
// paths that the columnar kernel and the allocation-free DP target, plus
// the group-by fill and AllPair prefix micro-benchmarks that watch the
// flat-layout kernels directly.
const defaultBench = "BenchmarkPrecompute|BenchmarkCascading|BenchmarkLiquor|BenchmarkVarCalc|BenchmarkGroupByFill"

// Benchmark is one parsed `go test -bench` result line.
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Report is the BENCH_engine.json document.
type Report struct {
	GeneratedBy string      `json:"generated_by"`
	GoVersion   string      `json:"go_version"`
	GOOS        string      `json:"goos"`
	GOARCH      string      `json:"goarch"`
	BenchRegex  string      `json:"bench_regex"`
	BenchTime   string      `json:"bench_time"`
	UnixTime    int64       `json:"unix_time"`
	Benchmarks  []Benchmark `json:"benchmarks"`
}

// benchLine matches e.g.
//
//	BenchmarkPrecomputeLiquor-8  5  229347513 ns/op  27838045 B/op  196635 allocs/op
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

func main() {
	mode := flag.String("mode", "micro", "micro (go test -bench), streaming (per-update latency replay), catalog (snapshot save/restore vs rebuild), approx (high-cardinality exact vs anytime approximate), hierarchy (taxonomy exact vs subtree-pruned approximate), or bigdata (beyond-RAM serving off a mapped snapshot)")
	bench := flag.String("bench", defaultBench, "benchmark regex passed to go test -bench")
	benchtime := flag.String("benchtime", "2s", "value for go test -benchtime")
	count := flag.Int("count", 1, "value for go test -count")
	pkg := flag.String("pkg", ".", "package holding the benchmarks")
	replays := flag.Int("replays", 7, "streaming/catalog modes: replay count (minimum is reported)")
	scale := flag.Int("scale", 2, "bigdata mode: highcard user-cardinality multiplier (the dataset must outgrow the budget)")
	budgetMB := flag.Int("budget-mb", 48, "bigdata mode: engine-pool memory budget in MiB")
	requests := flag.Int("requests", 96, "bigdata mode: cold explain requests to serve")
	out := flag.String("o", "", "output file ('-' for stdout; default depends on mode)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile here (micro mode: forwarded to go test; other modes: profiles the replay in-process)")
	memprofile := flag.String("memprofile", "", "write a heap profile here (micro mode: forwarded to go test; other modes: snapshots the heap after the replay)")
	flag.Parse()

	switch *mode {
	case "streaming":
		if *out == "" {
			*out = "BENCH_streaming.json"
		}
		if err := withProfiles(*cpuprofile, *memprofile, func() error { return runStreaming(*out, *replays) }); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		return
	case "catalog":
		if *out == "" {
			*out = "BENCH_catalog.json"
		}
		if err := withProfiles(*cpuprofile, *memprofile, func() error { return runCatalog(*out, *replays) }); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		return
	case "approx":
		if *out == "" {
			*out = "BENCH_approx.json"
		}
		if err := withProfiles(*cpuprofile, *memprofile, func() error { return runApprox(*out, *replays) }); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		return
	case "hierarchy":
		if *out == "" {
			*out = "BENCH_hierarchy.json"
		}
		if err := withProfiles(*cpuprofile, *memprofile, func() error { return runHierarchy(*out, *replays) }); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		return
	case "bigdata":
		if *out == "" {
			*out = "BENCH_bigdata.json"
		}
		if err := withProfiles(*cpuprofile, *memprofile, func() error { return runBigdata(*out, *scale, *budgetMB, *requests) }); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		return
	case "micro":
		if *out == "" {
			*out = "BENCH_engine.json"
		}
	default:
		fmt.Fprintf(os.Stderr, "benchjson: unknown mode %q\n", *mode)
		os.Exit(1)
	}

	args := []string{
		"test", "-run", "^$",
		"-bench", *bench,
		"-benchmem",
		"-benchtime", *benchtime,
		"-count", strconv.Itoa(*count),
	}
	// go test writes profiles next to the test binary unless given an
	// absolute path; resolve so -cpuprofile benchjson.pprof lands where
	// the user asked.
	if *cpuprofile != "" {
		args = append(args, "-cpuprofile", absPath(*cpuprofile))
	}
	if *memprofile != "" {
		args = append(args, "-memprofile", absPath(*memprofile))
	}
	args = append(args, *pkg)
	cmd := exec.Command("go", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	fmt.Fprintf(os.Stderr, "benchjson: go %s\n", strings.Join(args, " "))
	if err := cmd.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: go test failed: %v\n%s%s", err, stdout.String(), stderr.String())
		os.Exit(1)
	}

	report := Report{
		GeneratedBy: "cmd/benchjson",
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		BenchRegex:  *bench,
		BenchTime:   *benchtime,
		UnixTime:    time.Now().Unix(),
	}
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		var bytesOp, allocsOp int64
		if m[4] != "" {
			bytesOp, _ = strconv.ParseInt(m[4], 10, 64)
		}
		if m[5] != "" {
			allocsOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		report.Benchmarks = append(report.Benchmarks, Benchmark{
			Name:        strings.TrimPrefix(m[1], "Benchmark"),
			Iterations:  iters,
			NsPerOp:     ns,
			BytesPerOp:  bytesOp,
			AllocsPerOp: allocsOp,
		})
	}
	if len(report.Benchmarks) == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: no benchmark lines matched; raw output:\n%s", stdout.String())
		os.Exit(1)
	}

	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %s (%d benchmarks)\n", *out, len(report.Benchmarks))
}

// absPath resolves a profile path against the invocation directory, since
// `go test` otherwise drops profiles next to the test binary.
func absPath(p string) string {
	abs, err := filepath.Abs(p)
	if err != nil {
		return p
	}
	return abs
}

// withProfiles runs an in-process benchmark mode under the optional CPU
// profiler and snapshots the heap afterwards — the workflow for chasing a
// regression benchcmp flags: profile the same replay the gate measures,
// then `go tool pprof` the output.
func withProfiles(cpu, mem string, run func() error) error {
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err == nil {
				fmt.Fprintf(os.Stderr, "benchjson: wrote CPU profile %s\n", cpu)
			}
		}()
	}
	if err := run(); err != nil {
		return err
	}
	if mem != "" {
		runtime.GC() // settle the heap so the profile shows retained memory
		f, err := os.Create(mem)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "benchjson: wrote heap profile %s\n", mem)
	}
	return nil
}

// streamStart is where the streaming replay switches from batch build to
// per-day updates: the first half of the 120-day workload.
const streamStart = 60

// StreamUpdate is one per-update latency sample (minimum over replays).
type StreamUpdate struct {
	Day       int     `json:"day"`
	N         int     `json:"n"`
	AppendNs  int64   `json:"append_ns"`
	RebuildNs int64   `json:"rebuild_ns"`
	Speedup   float64 `json:"speedup"`
}

// StreamTotals sums a range of updates.
type StreamTotals struct {
	Updates   int     `json:"updates"`
	AppendNs  int64   `json:"append_ns"`
	RebuildNs int64   `json:"rebuild_ns"`
	Speedup   float64 `json:"speedup"`
}

// StreamReport is the BENCH_streaming.json document.
type StreamReport struct {
	GeneratedBy string         `json:"generated_by"`
	GoVersion   string         `json:"go_version"`
	GOOS        string         `json:"goos"`
	GOARCH      string         `json:"goarch"`
	Workload    string         `json:"workload"`
	StartDays   int            `json:"start_days"`
	TotalDays   int            `json:"total_days"`
	Replays     int            `json:"replays"`
	UnixTime    int64          `json:"unix_time"`
	Updates     []StreamUpdate `json:"updates"`
	Totals      StreamTotals   `json:"totals"`
	// LaterHalf covers the second half of the updates, where the gap
	// between O(delta) appends and O(history) rebuilds is widest.
	LaterHalf StreamTotals `json:"later_half"`
}

func streamOptions() core.Options {
	opts := core.DefaultOptions()
	opts.MaxOrder = 2
	return opts
}

// runStreaming replays the streaming workload day by day through the
// append path and writes the per-update latency report. Each update is
// compared with a fresh engine built and explained over that day's full
// snapshot. Snapshots are materialized up front so their construction is
// not billed to the rebuild, and each replay times its appends and its
// rebuilds in separate passes so neither pays for the other's garbage.
func runStreaming(out string, replays int) error {
	if replays < 1 {
		replays = 1
	}
	days := datasets.StreamDays
	q := core.Query{Measure: "cases", Agg: relation.Sum, ExplainBy: []string{"state", "county"}}

	snapshots := make([]*relation.Relation, days+1)
	for d := streamStart + 1; d <= days; d++ {
		snapshots[d] = datasets.Stream(d).Rel
	}

	nUpdates := days - streamStart
	appendNs := make([]int64, nUpdates)
	rebuildNs := make([]int64, nUpdates)
	keepMin := func(ns []int64, r, i int, t0 time.Time) {
		if d := time.Since(t0).Nanoseconds(); r == 0 || d < ns[i] {
			ns[i] = d
		}
	}
	for r := 0; r < replays; r++ {
		inc, _, err := core.NewIncremental(datasets.Stream(streamStart).Rel, q, streamOptions())
		if err != nil {
			return err
		}
		for d := streamStart; d < days; d++ {
			timeVals, dims, measures := datasets.StreamDelta(d)
			t0 := time.Now()
			if _, err := inc.AppendRows(timeVals, dims, measures); err != nil {
				return err
			}
			keepMin(appendNs, r, d-streamStart, t0)
		}
		for d := streamStart; d < days; d++ {
			t0 := time.Now()
			eng, err := core.NewEngine(snapshots[d+1], q, streamOptions())
			if err != nil {
				return err
			}
			if _, err := eng.Explain(); err != nil {
				return err
			}
			keepMin(rebuildNs, r, d-streamStart, t0)
		}
	}

	report := StreamReport{
		GeneratedBy: "cmd/benchjson -mode streaming",
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Workload:    "datasets.Stream: 120-day four-state epidemic, per-county rows, day-by-day updates from day 60",
		StartDays:   streamStart,
		TotalDays:   days,
		Replays:     replays,
		UnixTime:    time.Now().Unix(),
	}
	sum := func(from, to int) StreamTotals {
		t := StreamTotals{Updates: to - from}
		for i := from; i < to; i++ {
			t.AppendNs += appendNs[i]
			t.RebuildNs += rebuildNs[i]
		}
		if t.AppendNs > 0 {
			t.Speedup = float64(t.RebuildNs) / float64(t.AppendNs)
		}
		return t
	}
	for i := 0; i < nUpdates; i++ {
		u := StreamUpdate{
			Day:       streamStart + i,
			N:         streamStart + i + 1,
			AppendNs:  appendNs[i],
			RebuildNs: rebuildNs[i],
		}
		if u.AppendNs > 0 {
			u.Speedup = float64(u.RebuildNs) / float64(u.AppendNs)
		}
		report.Updates = append(report.Updates, u)
	}
	report.Totals = sum(0, nUpdates)
	report.LaterHalf = sum(nUpdates/2, nUpdates)

	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "-" {
		os.Stdout.Write(enc)
		return nil
	}
	if err := os.WriteFile(out, enc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %s (%d updates, later-half speedup %.1fx)\n",
		out, nUpdates, report.LaterHalf.Speedup)
	return nil
}

// CatalogDataset is one dataset's warm-restart measurements (minimum
// over replays).
type CatalogDataset struct {
	Name          string `json:"name"`
	Rows          int    `json:"rows"`
	Timestamps    int    `json:"timestamps"`
	Candidates    int    `json:"candidates"`
	CSVBytes      int64  `json:"csv_bytes"`
	SnapshotBytes int64  `json:"snapshot_bytes"`
	// ColdBuildNs is a cold start without a snapshot: CSV parse +
	// dictionary encoding + full engine build (group-by, planning,
	// smoothing, filter).
	ColdBuildNs int64 `json:"cold_build_ns"`
	// SnapshotSaveNs encodes and atomically writes the snapshot.
	SnapshotSaveNs int64 `json:"snapshot_save_ns"`
	// SnapshotRestoreNs is a warm start: snapshot load (checksum,
	// decode) + engine finish (smoothing, filter, explainer).
	SnapshotRestoreNs int64 `json:"snapshot_restore_ns"`
	// Speedup is ColdBuildNs / SnapshotRestoreNs.
	Speedup float64 `json:"speedup"`
}

// CatalogReport is the BENCH_catalog.json document.
type CatalogReport struct {
	GeneratedBy string           `json:"generated_by"`
	GoVersion   string           `json:"go_version"`
	GOOS        string           `json:"goos"`
	GOARCH      string           `json:"goarch"`
	Replays     int              `json:"replays"`
	UnixTime    int64            `json:"unix_time"`
	Datasets    []CatalogDataset `json:"datasets"`
}

// runCatalog stages the liquor and stream datasets in a temp on-disk
// catalog and measures cold start vs snapshot save/restore.
func runCatalog(out string, replays int) error {
	if replays < 1 {
		replays = 1
	}
	dir, err := os.MkdirTemp("", "tsx-bench-catalog-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cat, err := catalog.Open(dir)
	if err != nil {
		return err
	}

	report := CatalogReport{
		GeneratedBy: "cmd/benchjson -mode catalog",
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Replays:     replays,
		UnixTime:    time.Now().Unix(),
	}
	for _, d := range []*datasets.Dataset{datasets.Liquor(), datasets.Stream(datasets.StreamDays)} {
		cd, err := benchCatalogDataset(cat, d, replays)
		if err != nil {
			return fmt.Errorf("%s: %w", d.Name, err)
		}
		report.Datasets = append(report.Datasets, cd)
	}

	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "-" {
		os.Stdout.Write(enc)
		return nil
	}
	if err := os.WriteFile(out, enc, 0o644); err != nil {
		return err
	}
	for _, cd := range report.Datasets {
		fmt.Fprintf(os.Stderr, "benchjson: %s cold %.1fms, restore %.1fms (%.1fx)\n",
			cd.Name, float64(cd.ColdBuildNs)/1e6, float64(cd.SnapshotRestoreNs)/1e6, cd.Speedup)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %s (%d datasets)\n", out, len(report.Datasets))
	return nil
}

// catalogBenchName makes a catalog-safe slug for a dataset.
func catalogBenchName(name string) string {
	return "bench-" + strings.ToLower(strings.ReplaceAll(name, " ", "-"))
}

func benchCatalogDataset(cat *catalog.Catalog, d *datasets.Dataset, replays int) (CatalogDataset, error) {
	name := catalogBenchName(d.Name)
	m := catalog.Manifest{
		Name:         name,
		TimeCol:      d.Rel.TimeName(),
		DimCols:      d.Rel.DimNames(),
		MeasureCol:   d.Measure,
		Agg:          d.Agg.String(),
		ExplainBy:    d.ExplainBy,
		MaxOrder:     d.MaxOrder,
		SmoothWindow: d.SmoothWindow,
	}
	var csvBuf bytes.Buffer
	if err := relation.WriteCSV(&csvBuf, d.Rel); err != nil {
		return CatalogDataset{}, err
	}
	if _, err := cat.Create(m, bytes.NewReader(csvBuf.Bytes())); err != nil {
		return CatalogDataset{}, err
	}
	cd := CatalogDataset{
		Name:       d.Name,
		Rows:       d.Rel.NumRows(),
		Timestamps: d.Rel.NumTimestamps(),
		CSVBytes:   int64(csvBuf.Len()),
	}
	q := core.Query{Measure: d.Measure, Agg: d.Agg, ExplainBy: d.ExplainBy}
	opts := core.DefaultOptions()
	opts.MaxOrder = d.MaxOrder
	opts.SmoothWindow = d.SmoothWindow

	// Cold start: CSV parse + full engine build, exactly what a restart
	// without a snapshot pays per dataset.
	for r := 0; r < replays; r++ {
		t0 := time.Now()
		rel, err := cat.LoadRelation(name)
		if err != nil {
			return cd, err
		}
		if _, err := core.NewEngine(rel, q, opts); err != nil {
			return cd, err
		}
		if ns := time.Since(t0).Nanoseconds(); r == 0 || ns < cd.ColdBuildNs {
			cd.ColdBuildNs = ns
		}
	}

	// Snapshot save: raw universe encode + checksummed atomic write. The
	// universe build itself is not billed — the background refresher
	// amortizes it off the request path.
	fp, err := cat.DataFingerprint(name)
	if err != nil {
		return cd, err
	}
	rel, err := cat.LoadRelation(name)
	if err != nil {
		return cd, err
	}
	u, err := explain.NewUniverse(rel, explain.Config{
		Measure: d.Measure, Agg: d.Agg, ExplainBy: d.ExplainBy, MaxOrder: d.MaxOrder,
	})
	if err != nil {
		return cd, err
	}
	cd.Candidates = u.NumCandidates()
	for r := 0; r < replays; r++ {
		t0 := time.Now()
		if err := cat.SaveSnapshot(name, rel, u, fp); err != nil {
			return cd, err
		}
		if ns := time.Since(t0).Nanoseconds(); r == 0 || ns < cd.SnapshotSaveNs {
			cd.SnapshotSaveNs = ns
		}
	}

	// Warm start: snapshot load (checksum + decode) + engine finish
	// (smoothing, support filter, explainer) — the group-by and planning
	// passes never run.
	for r := 0; r < replays; r++ {
		t0 := time.Now()
		srel, su, err := cat.LoadSnapshot(name)
		if err != nil {
			return cd, err
		}
		_ = srel
		if _, err := core.NewEngineFromUniverse(su, q, opts); err != nil {
			return cd, err
		}
		if ns := time.Since(t0).Nanoseconds(); r == 0 || ns < cd.SnapshotRestoreNs {
			cd.SnapshotRestoreNs = ns
		}
	}
	if cd.SnapshotRestoreNs > 0 {
		cd.Speedup = float64(cd.ColdBuildNs) / float64(cd.SnapshotRestoreNs)
	}
	if fi, err := os.Stat(filepath.Join(cat.Dir(), name, "snapshot.bin")); err == nil {
		cd.SnapshotBytes = fi.Size()
	}
	return cd, nil
}

// ApproxReport is the BENCH_approx.json document: the high-cardinality
// scenario's exact-vs-approximate explain latency and the approximate
// path's reported and measured attribution error.
type ApproxReport struct {
	GeneratedBy string `json:"generated_by"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	Replays     int    `json:"replays"`
	UnixTime    int64  `json:"unix_time"`
	Scenario    string `json:"scenario"`
	// Candidate-axis shape of the scenario.
	Users      int `json:"users"`
	Regions    int `json:"regions"`
	N          int `json:"n"`
	Candidates int `json:"candidates"`
	Eligible   int `json:"eligible"`
	// BuildNs is the shared precompute (relation → engine) both modes pay
	// identically; ExactExplainNs/ApproxExplainNs are the end-to-end
	// explain calls on a freshly built engine (minimum over replays).
	BuildNs         int64   `json:"build_ns"`
	ExactExplainNs  int64   `json:"exact_explain_ns"`
	ApproxExplainNs int64   `json:"approx_explain_ns"`
	Speedup         float64 `json:"speedup"`
	// Error accounting: the requested epsilon, the worst reported
	// per-segment bound, and the worst error actually measured against
	// the exact optimum on the approximate run's own segments.
	Epsilon        float64 `json:"epsilon"`
	CandidatesUsed int     `json:"candidates_used"`
	MaxErrBound    float64 `json:"max_err_bound"`
	MaxActualErr   float64 `json:"max_actual_err"`
	Rounds         int     `json:"rounds"`
	K              int     `json:"k"`
}

// approxScenario returns the benchmark's high-cardinality dataset: the
// generator defaults, ~52k conjunctions at order 2.
func approxScenario() (*synth.HighCardDataset, synth.HighCardParams, error) {
	p := synth.HighCardParams{Seed: 42}.WithDefaults()
	d, err := synth.HighCardinality(p)
	return d, p, err
}

func approxQueryOpts() (core.Query, core.Options) {
	q := core.Query{Measure: "events", Agg: relation.Sum, ExplainBy: []string{"user", "region"}}
	opts := core.DefaultOptions()
	opts.MaxOrder = 2
	opts.K = 8
	return q, opts
}

// runApprox measures the exact and approximate explain paths on the
// high-cardinality scenario and cross-checks the approximate result.
func runApprox(out string, replays int) error {
	if replays < 1 {
		replays = 1
	}
	d, p, err := approxScenario()
	if err != nil {
		return err
	}
	q, opts := approxQueryOpts()
	aopts := opts
	aopts.Approx = core.ApproxOptions{Enabled: true, Epsilon: 0.05, MaxCandidates: 4096}

	report := ApproxReport{
		GeneratedBy: "cmd/benchjson -mode approx",
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Replays:     replays,
		UnixTime:    time.Now().Unix(),
		Scenario:    fmt.Sprintf("synth.HighCardinality seed=%d: %d whale users over a %d×%d user-region long tail", p.Seed, p.Whales, p.Users-p.Whales, p.Regions),
		Users:       p.Users,
		Regions:     p.Regions,
		N:           p.N,
		Epsilon:     aopts.Approx.Epsilon,
		K:           opts.K,
	}

	// Exact path: fresh engine per replay so every explain is cold (the
	// per-segment cache would otherwise make later replays free).
	var exactEng *core.Engine
	for r := 0; r < replays; r++ {
		t0 := time.Now()
		eng, err := core.NewEngine(d.Rel, q, opts)
		if err != nil {
			return err
		}
		build := time.Since(t0).Nanoseconds()
		t1 := time.Now()
		if _, err := eng.Explain(); err != nil {
			return err
		}
		ns := time.Since(t1).Nanoseconds()
		if r == 0 || build < report.BuildNs {
			report.BuildNs = build
		}
		if r == 0 || ns < report.ExactExplainNs {
			report.ExactExplainNs = ns
		}
		exactEng = eng
	}
	report.Candidates = exactEng.Universe().NumCandidates()
	report.Eligible = exactEng.FilteredCount()

	// Approximate path, same cold-engine discipline.
	var approxRes *core.Result
	for r := 0; r < replays; r++ {
		eng, err := core.NewEngine(d.Rel, q, aopts)
		if err != nil {
			return err
		}
		t1 := time.Now()
		res, err := eng.Explain()
		if err != nil {
			return err
		}
		ns := time.Since(t1).Nanoseconds()
		if r == 0 || ns < report.ApproxExplainNs {
			report.ApproxExplainNs = ns
		}
		approxRes = res
	}
	if approxRes.Approx == nil {
		return fmt.Errorf("approx run returned no ApproxInfo")
	}
	report.CandidatesUsed = approxRes.Approx.CandidatesUsed
	report.MaxErrBound = approxRes.Approx.MaxErrBound
	report.Rounds = approxRes.Approx.Rounds
	if report.ApproxExplainNs > 0 {
		report.Speedup = float64(report.ExactExplainNs) / float64(report.ApproxExplainNs)
	}

	// Measure the true attribution error against the exact optimum on the
	// approximate run's own segments; it must stay within the reported
	// per-segment bound.
	mIdx := len(exactEng.Explainer().TopM(0, 1).Best) - 1
	for _, seg := range approxRes.Segments {
		ge := exactEng.Explainer().TopM(seg.Start, seg.End).Best[mIdx]
		var ga float64
		for _, e := range seg.Top {
			ga += e.Gamma
		}
		if ge <= 0 {
			continue
		}
		actual := (ge - ga) / ge
		if actual < 0 {
			actual = 0
		}
		if actual > report.MaxActualErr {
			report.MaxActualErr = actual
		}
		if actual > seg.ErrBound+1e-9 {
			return fmt.Errorf("segment [%d,%d]: measured error %.6f exceeds reported bound %.6f",
				seg.Start, seg.End, actual, seg.ErrBound)
		}
	}

	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "-" {
		os.Stdout.Write(enc)
		return nil
	}
	if err := os.WriteFile(out, enc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchjson: approx %d cands (%d eligible, %d used): exact %.0fms vs approx %.0fms (%.1fx), bound %.4f, measured %.4f\n",
		report.Candidates, report.Eligible, report.CandidatesUsed,
		float64(report.ExactExplainNs)/1e6, float64(report.ApproxExplainNs)/1e6,
		report.Speedup, report.MaxErrBound, report.MaxActualErr)
	fmt.Fprintf(os.Stderr, "benchjson: wrote %s\n", out)
	return nil
}

// HierarchyReport is the BENCH_hierarchy.json document: the taxonomy
// scenario's exact-vs-subtree-pruned explain latency, the walk-vs-flat
// candidate-ranking micro-comparison, and the approximate path's error
// accounting. Both explain paths run over the same hierarchy-declared
// universe (grouped enumeration, taxonomy DAG edges), so the differential
// compares within one candidate space; the only variable is the subtree
// bound-pruning.
type HierarchyReport struct {
	GeneratedBy string `json:"generated_by"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	Replays     int    `json:"replays"`
	UnixTime    int64  `json:"unix_time"`
	Scenario    string `json:"scenario"`
	// Taxonomy shape of the scenario.
	Cats       int `json:"cats"`
	Subcats    int `json:"subcats"`
	Leaves     int `json:"leaves"`
	N          int `json:"n"`
	Candidates int `json:"candidates"`
	Eligible   int `json:"eligible"`
	// BuildNs is the shared precompute both modes pay identically;
	// ExactExplainNs/HierExplainNs are the end-to-end explain calls on a
	// freshly built engine (minimum over replays).
	BuildNs        int64   `json:"build_ns"`
	ExactExplainNs int64   `json:"exact_explain_ns"`
	HierExplainNs  int64   `json:"hier_explain_ns"`
	Speedup        float64 `json:"speedup"`
	// Ranking micro-comparison on a fresh universe at the same budget:
	// the flat ContributionBounds + SelectTopBounds pass scores every
	// candidate, the best-first subtree walk scores only Visited of them.
	RankFlatNs  int64   `json:"rank_flat_ns"`
	WalkNs      int64   `json:"walk_ns"`
	WalkSpeedup float64 `json:"walk_speedup"`
	Visited     int     `json:"visited"`
	// Error accounting, as in the approx report: requested epsilon, worst
	// reported per-segment bound, worst error measured against the exact
	// optimum on the approximate run's own segments.
	Epsilon        float64 `json:"epsilon"`
	CandidatesUsed int     `json:"candidates_used"`
	MaxErrBound    float64 `json:"max_err_bound"`
	MaxActualErr   float64 `json:"max_actual_err"`
	Rounds         int     `json:"rounds"`
	K              int     `json:"k"`
}

// hierScenario returns the benchmark's taxonomy dataset: the generator
// defaults, a three-level ~50k-leaf taxonomy (~52k candidates with the
// roll-up levels) declared on the relation.
func hierScenario() (*synth.TaxonomyDataset, synth.TaxonomyParams, error) {
	p := synth.TaxonomyParams{Seed: 42}.WithDefaults()
	d, err := synth.Taxonomy(p)
	if err != nil {
		return nil, p, err
	}
	return d, p, d.Rel.DeclareHierarchy("cat>subcat>leaf", synth.TaxonomyLevels())
}

func hierQueryOpts() (core.Query, core.Options) {
	q := core.Query{Measure: "sales", Agg: relation.Sum, ExplainBy: synth.TaxonomyLevels()}
	opts := core.DefaultOptions()
	opts.MaxOrder = 2
	opts.K = 8
	return q, opts
}

// runHierarchy measures the exact and the subtree-pruned approximate
// explain paths on the taxonomy scenario and cross-checks the approximate
// result against the exact optimum per segment.
func runHierarchy(out string, replays int) error {
	if replays < 1 {
		replays = 1
	}
	d, p, err := hierScenario()
	if err != nil {
		return err
	}
	q, opts := hierQueryOpts()
	aopts := opts
	aopts.Approx = core.ApproxOptions{Enabled: true, Epsilon: 0.05, MaxCandidates: 4096}

	report := HierarchyReport{
		GeneratedBy: "cmd/benchjson -mode hierarchy",
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Replays:     replays,
		UnixTime:    time.Now().Unix(),
		Scenario:    fmt.Sprintf("synth.Taxonomy seed=%d: %d drivers in a %d×%d×%d cat/subcat/leaf taxonomy", p.Seed, p.Drivers, p.Cats, p.SubcatsPerCat, p.LeavesPerSubcat),
		Cats:        p.Cats,
		Subcats:     p.SubcatsPerCat,
		Leaves:      p.LeavesPerSubcat,
		N:           p.N,
		Epsilon:     aopts.Approx.Epsilon,
		K:           opts.K,
	}

	// Subtree-pruned approximate path first: fresh engine per replay so
	// every explain is cold. Its settled candidate budget (where the
	// anytime refinement stopped) is what the ranking micro-comparison
	// below replays.
	var hierRes *core.Result
	for r := 0; r < replays; r++ {
		eng, err := core.NewEngine(d.Rel, q, aopts)
		if err != nil {
			return err
		}
		t1 := time.Now()
		res, err := eng.Explain()
		if err != nil {
			return err
		}
		ns := time.Since(t1).Nanoseconds()
		if r == 0 || ns < report.HierExplainNs {
			report.HierExplainNs = ns
		}
		hierRes = res
	}
	if hierRes.Approx == nil {
		return fmt.Errorf("hierarchy run returned no ApproxInfo")
	}
	report.CandidatesUsed = hierRes.Approx.CandidatesUsed
	report.MaxErrBound = hierRes.Approx.MaxErrBound
	report.Rounds = hierRes.Approx.Rounds

	// Exact path, same cold-engine discipline. The walk-vs-flat ranking
	// micro-comparison piggybacks on the same fresh universe, at the budget
	// the approximate run settled on — both selector caches start cold, and
	// neither feeds the exact explain that follows.
	budget := report.CandidatesUsed
	if budget <= 0 {
		budget = aopts.Approx.MaxCandidates
	}
	var exactEng *core.Engine
	for r := 0; r < replays; r++ {
		t0 := time.Now()
		eng, err := core.NewEngine(d.Rel, q, opts)
		if err != nil {
			return err
		}
		build := time.Since(t0).Nanoseconds()

		u := eng.Universe()
		t1 := time.Now()
		flatIDs, _ := explain.SelectTopBounds(u.ContributionBounds(nil), nil, budget)
		rankFlat := time.Since(t1).Nanoseconds()
		t2 := time.Now()
		sb := explain.NewSubtreeBounds(u)
		if sb == nil {
			return fmt.Errorf("taxonomy universe not prunable: NewSubtreeBounds returned nil")
		}
		walkIDs, _ := sb.SelectTop(nil, budget)
		walk := time.Since(t2).Nanoseconds()
		if len(walkIDs) != len(flatIDs) {
			return fmt.Errorf("walk kept %d candidates, flat kept %d", len(walkIDs), len(flatIDs))
		}
		if r == 0 || rankFlat < report.RankFlatNs {
			report.RankFlatNs = rankFlat
		}
		if r == 0 || walk < report.WalkNs {
			report.WalkNs = walk
			report.Visited = sb.Visited
		}

		t3 := time.Now()
		if _, err := eng.Explain(); err != nil {
			return err
		}
		ns := time.Since(t3).Nanoseconds()
		if r == 0 || build < report.BuildNs {
			report.BuildNs = build
		}
		if r == 0 || ns < report.ExactExplainNs {
			report.ExactExplainNs = ns
		}
		exactEng = eng
	}
	report.Candidates = exactEng.Universe().NumCandidates()
	report.Eligible = exactEng.FilteredCount()
	if report.WalkNs > 0 {
		report.WalkSpeedup = float64(report.RankFlatNs) / float64(report.WalkNs)
	}
	if report.HierExplainNs > 0 {
		report.Speedup = float64(report.ExactExplainNs) / float64(report.HierExplainNs)
	}

	// Measure the true attribution error against the exact optimum on the
	// approximate run's own segments; it must stay within the reported
	// per-segment bound.
	mIdx := len(exactEng.Explainer().TopM(0, 1).Best) - 1
	for _, seg := range hierRes.Segments {
		ge := exactEng.Explainer().TopM(seg.Start, seg.End).Best[mIdx]
		var ga float64
		for _, e := range seg.Top {
			ga += e.Gamma
		}
		if ge <= 0 {
			continue
		}
		actual := (ge - ga) / ge
		if actual < 0 {
			actual = 0
		}
		if actual > report.MaxActualErr {
			report.MaxActualErr = actual
		}
		if actual > seg.ErrBound+1e-9 {
			return fmt.Errorf("segment [%d,%d]: measured error %.6f exceeds reported bound %.6f",
				seg.Start, seg.End, actual, seg.ErrBound)
		}
	}

	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "-" {
		os.Stdout.Write(enc)
		return nil
	}
	if err := os.WriteFile(out, enc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchjson: hierarchy %d cands (%d eligible, %d used, %d walked): exact %.0fms vs pruned %.0fms (%.1fx), walk %.1fx, bound %.4f, measured %.4f\n",
		report.Candidates, report.Eligible, report.CandidatesUsed, report.Visited,
		float64(report.ExactExplainNs)/1e6, float64(report.HierExplainNs)/1e6,
		report.Speedup, report.WalkSpeedup, report.MaxErrBound, report.MaxActualErr)
	fmt.Fprintf(os.Stderr, "benchjson: wrote %s\n", out)
	return nil
}
