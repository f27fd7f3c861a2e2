// Command benchcmp gates performance regressions in CI: it diffs a
// freshly generated benchmark JSON (cmd/benchjson output) against the
// committed baseline at the repo root and exits non-zero when a hot path
// regressed beyond the thresholds — by default >25% on latency or >2× on
// allocations per op.
//
//	go run ./cmd/benchcmp -mode engine    -baseline BENCH_engine.json    -current /tmp/engine.json
//	go run ./cmd/benchcmp -mode streaming -baseline BENCH_streaming.json -current /tmp/streaming.json
//	go run ./cmd/benchcmp -mode catalog   -baseline BENCH_catalog.json   -current /tmp/catalog.json
//	go run ./cmd/benchcmp -mode approx    -baseline BENCH_approx.json    -current /tmp/approx.json
//	go run ./cmd/benchcmp -mode hierarchy -baseline BENCH_hierarchy.json -current /tmp/hierarchy.json
//	go run ./cmd/benchcmp -mode server    -baseline BENCH_server.json    -current /tmp/server.json -max-p99-ms 500
//	go run ./cmd/benchcmp -mode bigdata   -current BENCH_bigdata.json -max-p95-ms 3000 -min-budget-ratio 4
//
// Engine mode compares ns/op and allocs/op per benchmark (taking the
// minimum across -count repetitions, so noisy runs only help); streaming
// mode compares the append path's total and later-half latency plus the
// append-vs-fresh-build speedup; catalog mode compares per-dataset snapshot
// restore latency and the restore-vs-rebuild speedup (warm restarts must
// stay warm), plus — with -max-snapshot-csv-ratio — the absolute on-disk
// footprint contract (snapshot ≤ that fraction of the source CSV); engine
// mode additionally accepts -max-universe-build-ns, an absolute ns/op
// ceiling on the liquor universe build; approx mode gates the
// high-cardinality approximate path —
// the approx-vs-exact speedup must hold its floor (at least 5x, and not
// collapse relative to the baseline) and the reported error bound must
// stay within the requested epsilon and above the measured error;
// hierarchy mode gates the taxonomy subtree-pruned path the same way with
// a 3x floor, plus the walk must visit strictly fewer candidates than the
// universe holds (the pruning must actually engage); server
// mode gates the serving-layer workload report (cmd/loadgen output) —
// total p99 within the latency ratio of its baseline, and the
// degrade-never-shed invariant on the approx-eligible classes (explain,
// approx, progressive): zero 429s and zero 503s, because overload is
// required to degrade those answers, not shed them, plus an optional
// absolute -max-p99-ms ceiling on each of those classes' p99 (for
// progressive the report's latency is time-to-first-round); bigdata mode
// gates the beyond-RAM serving report (cmd/benchjson -mode bigdata
// output) with purely absolute checks — the candidate arena stayed
// memory-mapped, mapped bytes exceed resident bytes, resident bytes
// respect the budget, zero requests shed or failed, the serving-time
// peak heap stayed under the mapped bytes, plus optional -max-p95-ms and
// -min-budget-ratio floors.
//
// Benchmark-set mismatches fail in BOTH directions: a benchmark named by
// the baseline but missing from the fresh run means coverage was silently
// dropped; one present in the fresh run but absent from the baseline
// means a new benchmark is running ungated and the committed baseline
// must be regenerated — either way the gate would otherwise rot.
//
// To intentionally re-baseline after an accepted perf change, regenerate
// the repo-root JSONs with scripts/bench.sh and commit them alongside the
// change that explains the shift.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
)

// Benchmark mirrors cmd/benchjson's per-benchmark record.
type Benchmark struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Report mirrors the BENCH_engine.json document.
type Report struct {
	Benchmarks []Benchmark `json:"benchmarks"`
}

// StreamTotals and StreamReport mirror BENCH_streaming.json.
type StreamTotals struct {
	AppendNs int64   `json:"append_ns"`
	Speedup  float64 `json:"speedup"`
}

type StreamReport struct {
	Totals    StreamTotals `json:"totals"`
	LaterHalf StreamTotals `json:"later_half"`
}

func main() {
	mode := flag.String("mode", "engine", "engine (micro benchmarks), streaming (append-path replay), catalog (snapshot warm-restart), approx (high-cardinality approximate path), hierarchy (taxonomy subtree-pruned path), server (serving-layer load report), or bigdata (beyond-RAM mapped-arena serving report)")
	baseline := flag.String("baseline", "", "committed baseline JSON (default depends on mode)")
	current := flag.String("current", "", "freshly generated JSON to check")
	maxLatency := flag.Float64("max-latency-ratio", 1.25, "fail when current/baseline latency exceeds this")
	maxAllocs := flag.Float64("max-allocs-ratio", 2.0, "fail when current/baseline allocs/op exceeds this")
	maxSnapshotCSVRatio := flag.Float64("max-snapshot-csv-ratio", 0, "catalog mode: fail when a dataset's snapshot_bytes/csv_bytes exceeds this (0 disables; the footprint contract is 0.5)")
	maxUniverseBuildNs := flag.Float64("max-universe-build-ns", 0, "engine mode: absolute ns/op ceiling for PrecomputeLiquor (0 disables; machine-dependent, so CI sets it with headroom)")
	maxP99Ms := flag.Float64("max-p99-ms", 0, "server mode: absolute p99 ceiling in ms for the approx-eligible classes (0 disables; the committed-baseline contract is 500)")
	maxP95Ms := flag.Float64("max-p95-ms", 0, "bigdata mode: absolute p95 ceiling in ms for cold beyond-RAM explains (0 disables)")
	minBudgetRatio := flag.Float64("min-budget-ratio", 0, "bigdata mode: fail when dataset_over_budget_ratio is below this (0 disables; the committed-baseline contract is 4)")
	flag.Parse()

	if *baseline == "" {
		switch *mode {
		case "streaming":
			*baseline = "BENCH_streaming.json"
		case "catalog":
			*baseline = "BENCH_catalog.json"
		case "approx":
			*baseline = "BENCH_approx.json"
		case "hierarchy":
			*baseline = "BENCH_hierarchy.json"
		case "server":
			*baseline = "BENCH_server.json"
		case "bigdata":
			*baseline = "BENCH_bigdata.json" // unused: the bigdata gate is absolute
		default:
			*baseline = "BENCH_engine.json"
		}
	}
	if *current == "" {
		fail("missing -current")
	}

	var violations []string
	var err error
	switch *mode {
	case "engine":
		violations, err = compareEngine(*baseline, *current, *maxLatency, *maxAllocs, *maxUniverseBuildNs)
	case "streaming":
		violations, err = compareStreaming(*baseline, *current, *maxLatency)
	case "catalog":
		violations, err = compareCatalog(*baseline, *current, *maxLatency, *maxSnapshotCSVRatio)
	case "approx":
		violations, err = compareApprox(*baseline, *current, *maxLatency)
	case "hierarchy":
		violations, err = compareHierarchy(*baseline, *current, *maxLatency)
	case "server":
		violations, err = compareServer(*baseline, *current, *maxLatency, *maxP99Ms)
	case "bigdata":
		violations, err = compareBigdata(*current, *maxP95Ms, *minBudgetRatio)
	default:
		err = fmt.Errorf("unknown mode %q", *mode)
	}
	if err != nil {
		fail("%v", err)
	}
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "benchcmp: %d regression(s) beyond thresholds (latency ×%.2f, allocs ×%.2f):\n",
			len(violations), *maxLatency, *maxAllocs)
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "  %s\n", v)
		}
		fmt.Fprintln(os.Stderr, "benchcmp: to intentionally re-baseline, regenerate with scripts/bench.sh and commit the new JSON")
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchcmp: %s within thresholds of %s\n", *current, *baseline)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchcmp: "+format+"\n", args...)
	os.Exit(2)
}

func load(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}

// minByName folds repeated benchmark lines (-count > 1) to their best
// run: the minimum is the least noisy estimate of the true cost.
func minByName(benches []Benchmark) map[string]Benchmark {
	out := make(map[string]Benchmark)
	for _, b := range benches {
		prev, ok := out[b.Name]
		if !ok {
			out[b.Name] = b
			continue
		}
		if b.NsPerOp < prev.NsPerOp {
			prev.NsPerOp = b.NsPerOp
		}
		if b.AllocsPerOp < prev.AllocsPerOp {
			prev.AllocsPerOp = b.AllocsPerOp
		}
		out[b.Name] = prev
	}
	return out
}

// universeBuildBench is the benchmark the absolute build-time ceiling
// applies to: the liquor candidate-universe precompute, the hot path the
// columnar kernel exists for.
const universeBuildBench = "PrecomputeLiquor"

func compareEngine(baselinePath, currentPath string, maxLatency, maxAllocs, maxUniverseBuildNs float64) ([]string, error) {
	var base, cur Report
	if err := load(baselinePath, &base); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	if err := load(currentPath, &cur); err != nil {
		return nil, fmt.Errorf("current: %w", err)
	}
	baseBy := minByName(base.Benchmarks)
	curBy := minByName(cur.Benchmarks)

	var violations []string
	for name, b := range baseBy {
		c, ok := curBy[name]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: missing from current run", name))
			continue
		}
		if b.NsPerOp > 0 {
			if ratio := c.NsPerOp / b.NsPerOp; ratio > maxLatency {
				violations = append(violations, fmt.Sprintf(
					"%s: latency %.0f → %.0f ns/op (×%.2f)", name, b.NsPerOp, c.NsPerOp, ratio))
			}
		}
		if b.AllocsPerOp > 0 {
			if ratio := float64(c.AllocsPerOp) / float64(b.AllocsPerOp); ratio > maxAllocs {
				violations = append(violations, fmt.Sprintf(
					"%s: allocs %d → %d /op (×%.2f)", name, b.AllocsPerOp, c.AllocsPerOp, ratio))
			}
		}
	}
	// The other direction: a benchmark running fresh but absent from the
	// committed baseline is ungated — it would silently rot until someone
	// noticed. Force the re-baseline instead.
	for name := range curBy {
		if _, ok := baseBy[name]; !ok {
			violations = append(violations, fmt.Sprintf(
				"%s: missing from baseline %s (new benchmark — regenerate and commit the baseline)", name, baselinePath))
		}
	}
	// Absolute universe-build ceiling: ratio gates only catch drift
	// against the last committed baseline; this pins the hard floor the
	// kernel speedups bought so they can never be re-spent one accepted
	// re-baseline at a time.
	if maxUniverseBuildNs > 0 {
		c, ok := curBy[universeBuildBench]
		if !ok {
			violations = append(violations, fmt.Sprintf(
				"%s: missing from current run (universe-build ceiling unverifiable)", universeBuildBench))
		} else if c.NsPerOp > maxUniverseBuildNs {
			violations = append(violations, fmt.Sprintf(
				"%s: universe build %.0f ns/op exceeds absolute ceiling %.0f ns",
				universeBuildBench, c.NsPerOp, maxUniverseBuildNs))
		}
	}
	return violations, nil
}

// compareStreaming gates the O(delta) append path: total and later-half
// append latency must stay within the latency threshold, and the
// append-vs-rebuild speedup — the rebuild being a fresh engine built and
// explained over the same snapshot — must not collapse (losing more than
// the latency threshold's worth of its baseline value indicates the
// append path degraded toward the rebuild path).
func compareStreaming(baselinePath, currentPath string, maxLatency float64) ([]string, error) {
	var base, cur StreamReport
	if err := load(baselinePath, &base); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	if err := load(currentPath, &cur); err != nil {
		return nil, fmt.Errorf("current: %w", err)
	}
	var violations []string
	check := func(name string, b, c int64) {
		if b <= 0 {
			return
		}
		if ratio := float64(c) / float64(b); ratio > maxLatency {
			violations = append(violations, fmt.Sprintf(
				"%s: append latency %d → %d ns (×%.2f)", name, b, c, ratio))
		}
	}
	check("totals", base.Totals.AppendNs, cur.Totals.AppendNs)
	check("later_half", base.LaterHalf.AppendNs, cur.LaterHalf.AppendNs)
	if base.LaterHalf.Speedup > 0 && !math.IsInf(base.LaterHalf.Speedup, 0) {
		floor := base.LaterHalf.Speedup / maxLatency
		if cur.LaterHalf.Speedup < floor {
			violations = append(violations, fmt.Sprintf(
				"later_half: append-vs-rebuild speedup %.1fx → %.1fx (floor %.1fx)",
				base.LaterHalf.Speedup, cur.LaterHalf.Speedup, floor))
		}
	}
	return violations, nil
}

// CatalogDataset and CatalogReport mirror BENCH_catalog.json.
type CatalogDataset struct {
	Name              string  `json:"name"`
	CSVBytes          int64   `json:"csv_bytes"`
	SnapshotBytes     int64   `json:"snapshot_bytes"`
	ColdBuildNs       int64   `json:"cold_build_ns"`
	SnapshotRestoreNs int64   `json:"snapshot_restore_ns"`
	Speedup           float64 `json:"speedup"`
}

type CatalogReport struct {
	Datasets []CatalogDataset `json:"datasets"`
}

// compareCatalog gates the warm-restart path per dataset: snapshot
// restore latency must stay within the latency threshold of its
// baseline, and the restore-vs-rebuild speedup must not collapse (a
// speedup sliding toward 1x means restarts stopped being warm). A
// dataset present in the baseline but missing from the current run fails
// the gate. With maxSnapshotCSVRatio > 0 each dataset's snapshot must
// also stay at or under that fraction of its source CSV — an absolute
// footprint contract, deliberately not baseline-relative, so codec
// regressions cannot be re-baselined into acceptance.
func compareCatalog(baselinePath, currentPath string, maxLatency, maxSnapshotCSVRatio float64) ([]string, error) {
	var base, cur CatalogReport
	if err := load(baselinePath, &base); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	if err := load(currentPath, &cur); err != nil {
		return nil, fmt.Errorf("current: %w", err)
	}
	curBy := make(map[string]CatalogDataset, len(cur.Datasets))
	for _, d := range cur.Datasets {
		curBy[d.Name] = d
	}
	baseBy := make(map[string]bool, len(base.Datasets))
	var violations []string
	for _, b := range base.Datasets {
		baseBy[b.Name] = true
		c, ok := curBy[b.Name]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: missing from current run", b.Name))
			continue
		}
		if b.SnapshotRestoreNs > 0 {
			if ratio := float64(c.SnapshotRestoreNs) / float64(b.SnapshotRestoreNs); ratio > maxLatency {
				violations = append(violations, fmt.Sprintf(
					"%s: snapshot restore %d → %d ns (×%.2f)", b.Name, b.SnapshotRestoreNs, c.SnapshotRestoreNs, ratio))
			}
		}
		if b.Speedup > 0 && !math.IsInf(b.Speedup, 0) {
			floor := b.Speedup / maxLatency
			if floor < 1 {
				floor = 1 // a warm restart must at least beat the rebuild
			}
			if c.Speedup < floor {
				violations = append(violations, fmt.Sprintf(
					"%s: restore-vs-rebuild speedup %.1fx → %.1fx (floor %.1fx)", b.Name, b.Speedup, c.Speedup, floor))
			}
		}
	}
	for _, c := range cur.Datasets {
		if !baseBy[c.Name] {
			violations = append(violations, fmt.Sprintf(
				"%s: missing from baseline %s (new dataset — regenerate and commit the baseline)", c.Name, baselinePath))
		}
		if maxSnapshotCSVRatio > 0 && c.CSVBytes > 0 {
			if ratio := float64(c.SnapshotBytes) / float64(c.CSVBytes); ratio > maxSnapshotCSVRatio {
				violations = append(violations, fmt.Sprintf(
					"%s: snapshot %d bytes is %.3f× the %d-byte CSV (ceiling %.2f×)",
					c.Name, c.SnapshotBytes, ratio, c.CSVBytes, maxSnapshotCSVRatio))
			}
		}
	}
	return violations, nil
}

// ServerClassStats and ServerReport mirror the fields of
// BENCH_server.json (cmd/loadgen output) the gate reads.
type ServerClassStats struct {
	Requests int            `json:"requests"`
	Codes    map[string]int `json:"codes"`
	Degraded int            `json:"degraded"`
	P99Ms    float64        `json:"p99_ms"`
}

type ServerReport struct {
	Totals  ServerClassStats             `json:"totals"`
	ByClass map[string]*ServerClassStats `json:"by_class"`
}

// degradableClasses are the workload classes the degrade-never-shed
// contract covers: approx-eligible explains in all three shapes. The
// other classes (vanilla-free but non-explain, plus admin writes) may
// legitimately shed under overload.
var degradableClasses = []string{"explain", "approx", "progressive"}

// compareServer gates the serving-layer workload: the total p99 must
// stay within the latency ratio of its baseline, every baseline class
// must still be exercised, and — the invariants this mode exists for —
// the approx-eligible classes must show zero 429/503 (under overload
// those requests degrade to bounded coarse answers, they do not shed)
// and, when the absolute ceiling is set, each approx-eligible class's
// p99 must stay under it. The ceiling deliberately covers only the
// degradable classes: they are the traffic the degrade path promises a
// prompt bounded answer, while the non-degradable classes (diff, slice,
// stream, admin writes) are allowed to queue out their deadline under
// saturation. Progressive latency in the report is time-to-first-round.
func compareServer(baselinePath, currentPath string, maxLatency, maxP99Ms float64) ([]string, error) {
	var base, cur ServerReport
	if err := load(baselinePath, &base); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	if err := load(currentPath, &cur); err != nil {
		return nil, fmt.Errorf("current: %w", err)
	}
	var violations []string
	if base.Totals.P99Ms > 0 {
		if ratio := cur.Totals.P99Ms / base.Totals.P99Ms; ratio > maxLatency {
			violations = append(violations, fmt.Sprintf(
				"totals: p99 %.1f → %.1f ms (×%.2f)", base.Totals.P99Ms, cur.Totals.P99Ms, ratio))
		}
	}
	for name := range base.ByClass {
		if c, ok := cur.ByClass[name]; !ok || c.Requests == 0 {
			violations = append(violations, fmt.Sprintf(
				"%s: class missing from current run (coverage silently dropped)", name))
		}
	}
	for _, name := range degradableClasses {
		c, ok := cur.ByClass[name]
		if !ok {
			continue
		}
		for _, code := range []string{"429", "503"} {
			if n := c.Codes[code]; n > 0 {
				violations = append(violations, fmt.Sprintf(
					"%s: %d×%s — approx-eligible traffic must degrade under overload, never shed", name, n, code))
			}
		}
		if maxP99Ms > 0 && c.P99Ms > maxP99Ms {
			violations = append(violations, fmt.Sprintf(
				"%s: p99 %.1f ms exceeds the %.0f ms ceiling for approx-eligible traffic", name, c.P99Ms, maxP99Ms))
		}
	}
	return violations, nil
}

// ApproxReport mirrors the fields of BENCH_approx.json the gate reads.
type ApproxReport struct {
	ExactExplainNs  int64   `json:"exact_explain_ns"`
	ApproxExplainNs int64   `json:"approx_explain_ns"`
	Speedup         float64 `json:"speedup"`
	Epsilon         float64 `json:"epsilon"`
	MaxErrBound     float64 `json:"max_err_bound"`
	MaxActualErr    float64 `json:"max_actual_err"`
}

// approxSpeedupFloor is the hard acceptance floor for the approximate
// path on the high-cardinality scenario, independent of the baseline.
const approxSpeedupFloor = 5.0

// compareApprox gates the anytime approximate path: its latency must not
// regress, its approx-vs-exact speedup must hold both the hard 5x floor
// and its baseline (within the latency tolerance), and its error
// accounting must stay sound — the reported bound within the requested
// epsilon, the measured error within the reported bound.
func compareApprox(baselinePath, currentPath string, maxLatency float64) ([]string, error) {
	var base, cur ApproxReport
	if err := load(baselinePath, &base); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	if err := load(currentPath, &cur); err != nil {
		return nil, fmt.Errorf("current: %w", err)
	}
	var violations []string
	if base.ApproxExplainNs > 0 {
		if ratio := float64(cur.ApproxExplainNs) / float64(base.ApproxExplainNs); ratio > maxLatency {
			violations = append(violations, fmt.Sprintf(
				"approx explain latency %d → %d ns (×%.2f)", base.ApproxExplainNs, cur.ApproxExplainNs, ratio))
		}
	}
	floor := approxSpeedupFloor
	if base.Speedup/maxLatency > floor {
		floor = base.Speedup / maxLatency
	}
	if cur.Speedup < floor {
		violations = append(violations, fmt.Sprintf(
			"approx-vs-exact speedup %.1fx → %.1fx (floor %.1fx)", base.Speedup, cur.Speedup, floor))
	}
	if cur.MaxErrBound > cur.Epsilon {
		violations = append(violations, fmt.Sprintf(
			"reported error bound %.4f exceeds requested epsilon %.4f", cur.MaxErrBound, cur.Epsilon))
	}
	if cur.MaxActualErr > cur.MaxErrBound+1e-9 {
		violations = append(violations, fmt.Sprintf(
			"measured error %.6f exceeds reported bound %.6f (the bound is unsound)", cur.MaxActualErr, cur.MaxErrBound))
	}
	return violations, nil
}

// BigdataReport mirrors the fields of BENCH_bigdata.json the gate reads.
type BigdataReport struct {
	DatasetBytes         int64   `json:"dataset_bytes"`
	MemBudgetBytes       int64   `json:"mem_budget_bytes"`
	BudgetRatio          float64 `json:"dataset_over_budget_ratio"`
	ArenaMapped          bool    `json:"arena_mapped"`
	MappedBytes          int64   `json:"mapped_bytes"`
	ResidentBytes        int64   `json:"resident_bytes"`
	MmapRestores         int64   `json:"mmap_restores"`
	Requests             int     `json:"requests"`
	OK                   int     `json:"ok"`
	Shed429              int     `json:"shed_429"`
	Shed503              int     `json:"shed_503"`
	OtherErrors          int     `json:"other_errors"`
	P95Ms                float64 `json:"p95_ms"`
	ServingPeakHeapBytes int64   `json:"serving_peak_heap_bytes"`
}

// compareBigdata gates the beyond-RAM serving contract. Unlike the other
// modes it takes no baseline — every check is absolute, because the
// invariants (arena stays mapped, resident stays under budget, nothing
// sheds) are structural, not drift-relative:
//
//   - the candidate arena must actually be mapped (arena_mapped, with
//     mmap_restores > 0 proving engine builds took that path),
//   - mapped bytes must exceed resident bytes — the split this gate
//     exists for; equality means the arena quietly moved onto the heap,
//   - resident bytes must respect the memory budget,
//   - every request must succeed: cold approximate explains are
//     degradable traffic, so overload must degrade them, never shed,
//   - the serving-time peak heap must stay under the mapped bytes (the
//     zero-OOM evidence: a heap-resident arena would dwarf it),
//   - with -max-p95-ms, the cold restore+explain p95 holds the ceiling,
//   - with -min-budget-ratio, the dataset must genuinely outgrow the
//     budget — a shrunken dataset would pass everything else trivially.
func compareBigdata(currentPath string, maxP95Ms, minBudgetRatio float64) ([]string, error) {
	var cur BigdataReport
	if err := load(currentPath, &cur); err != nil {
		return nil, fmt.Errorf("current: %w", err)
	}
	var violations []string
	if !cur.ArenaMapped {
		violations = append(violations, "candidate arena was not memory-mapped (arena_mapped=false)")
	}
	if cur.MmapRestores == 0 {
		violations = append(violations, "no engine restore served its arena off a mapped snapshot (mmap_restores=0)")
	}
	if cur.MappedBytes <= cur.ResidentBytes {
		violations = append(violations, fmt.Sprintf(
			"mapped bytes %d not above resident bytes %d — the arena is heap-resident", cur.MappedBytes, cur.ResidentBytes))
	}
	if cur.MemBudgetBytes > 0 && cur.ResidentBytes > cur.MemBudgetBytes {
		violations = append(violations, fmt.Sprintf(
			"resident bytes %d exceed the %d-byte memory budget", cur.ResidentBytes, cur.MemBudgetBytes))
	}
	if shed := cur.Shed429 + cur.Shed503; shed > 0 {
		violations = append(violations, fmt.Sprintf(
			"%d requests shed (%d×429, %d×503) — approx-eligible traffic must degrade, never shed", shed, cur.Shed429, cur.Shed503))
	}
	if cur.OtherErrors > 0 || cur.OK != cur.Requests-cur.Shed429-cur.Shed503 {
		violations = append(violations, fmt.Sprintf(
			"%d/%d requests failed outright", cur.Requests-cur.OK-cur.Shed429-cur.Shed503, cur.Requests))
	}
	if cur.MappedBytes > 0 && cur.ServingPeakHeapBytes >= cur.MappedBytes {
		violations = append(violations, fmt.Sprintf(
			"serving peak heap %d bytes reached the %d mapped bytes — the arena migrated onto the heap", cur.ServingPeakHeapBytes, cur.MappedBytes))
	}
	if maxP95Ms > 0 && cur.P95Ms > maxP95Ms {
		violations = append(violations, fmt.Sprintf(
			"cold explain p95 %.1f ms exceeds the %.0f ms ceiling", cur.P95Ms, maxP95Ms))
	}
	if minBudgetRatio > 0 && cur.BudgetRatio < minBudgetRatio {
		violations = append(violations, fmt.Sprintf(
			"dataset is only %.2fx the memory budget (floor %.1fx) — the run does not prove beyond-RAM serving", cur.BudgetRatio, minBudgetRatio))
	}
	return violations, nil
}

// HierarchyReport mirrors the fields of BENCH_hierarchy.json the gate
// reads.
type HierarchyReport struct {
	ExactExplainNs int64   `json:"exact_explain_ns"`
	HierExplainNs  int64   `json:"hier_explain_ns"`
	Speedup        float64 `json:"speedup"`
	WalkSpeedup    float64 `json:"walk_speedup"`
	Visited        int     `json:"visited"`
	Candidates     int     `json:"candidates"`
	Epsilon        float64 `json:"epsilon"`
	MaxErrBound    float64 `json:"max_err_bound"`
	MaxActualErr   float64 `json:"max_actual_err"`
}

// hierarchySpeedupFloor is the hard acceptance floor for the
// subtree-pruned approximate path on the taxonomy scenario, independent
// of the baseline. It is lower than the flat approx floor because exact
// and pruned both run over the same hierarchy-shaped universe — the gate
// isolates what the subtree caps buy, not what a smaller candidate space
// buys.
const hierarchySpeedupFloor = 3.0

// compareHierarchy gates the subtree bound-pruning path on the taxonomy
// scenario, with the same structure as compareApprox: latency must not
// regress, the pruned-vs-exact speedup must hold both the hard 3x floor
// and its baseline (within the latency tolerance), the error accounting
// must stay sound, and the best-first walk must keep actually pruning —
// visiting every candidate would mean the caps stopped cutting subtrees
// even if the end-to-end latency still happened to pass.
func compareHierarchy(baselinePath, currentPath string, maxLatency float64) ([]string, error) {
	var base, cur HierarchyReport
	if err := load(baselinePath, &base); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	if err := load(currentPath, &cur); err != nil {
		return nil, fmt.Errorf("current: %w", err)
	}
	var violations []string
	if base.HierExplainNs > 0 {
		if ratio := float64(cur.HierExplainNs) / float64(base.HierExplainNs); ratio > maxLatency {
			violations = append(violations, fmt.Sprintf(
				"hierarchy explain latency %d → %d ns (×%.2f)", base.HierExplainNs, cur.HierExplainNs, ratio))
		}
	}
	floor := hierarchySpeedupFloor
	if base.Speedup/maxLatency > floor {
		floor = base.Speedup / maxLatency
	}
	if cur.Speedup < floor {
		violations = append(violations, fmt.Sprintf(
			"pruned-vs-exact speedup %.1fx → %.1fx (floor %.1fx)", base.Speedup, cur.Speedup, floor))
	}
	if cur.Candidates > 0 && cur.Visited >= cur.Candidates {
		violations = append(violations, fmt.Sprintf(
			"walk visited all %d candidates — subtree pruning is not engaging", cur.Candidates))
	}
	if cur.MaxErrBound > cur.Epsilon {
		violations = append(violations, fmt.Sprintf(
			"reported error bound %.4f exceeds requested epsilon %.4f", cur.MaxErrBound, cur.Epsilon))
	}
	if cur.MaxActualErr > cur.MaxErrBound+1e-9 {
		violations = append(violations, fmt.Sprintf(
			"measured error %.6f exceeds reported bound %.6f (the bound is unsound)", cur.MaxActualErr, cur.MaxErrBound))
	}
	return violations, nil
}
