package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/explain"
)

// The pipeline workloads answer one dataset's query in-process, the way
// an analyst's tool embedding the library would. Each iteration answers
// twice from data at rest, then asks follow-ups on the warm engines:
//
//	cold:     catalog.LoadRelation → explain.NewUniverse →
//	          core.NewEngineFromUniverse → ExplainWithKCtx(auto K)
//	restore:  catalog.LoadSnapshot → core.NewEngineFromUniverse →
//	          ExplainWithKCtx(auto K)
//	followup: ExplainWithKCtx(K) for K = 3, 5, 8 in a seeded order, on
//	          both warm engines
//
// The cold and restore answers must be bit-identical, and every K=3,5,8
// answer must equal the golden corpus.

// inputFile is where the parent leaves the child its input description.
const inputFile = "input.json"

// preparePipeline generates the workload's dataset as a CSV on disk.
// Generation is not part of the measured set-up.
func preparePipeline(w *workload, work string) error {
	df, err := writeDataset(work, w.dataset, "bench-"+w.dataset)
	if err != nil {
		return err
	}
	b, err := json.Marshal(df)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(work, inputFile), b, 0o644)
}

// putAtRest is the pipeline's set-up: what a user does once so that later
// questions find the dataset in the catalog with a warm-restart snapshot.
func putAtRest(dir string, df dataFile, ucfg explain.Config) (*catalog.Catalog, error) {
	cat, err := catalog.Open(dir)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(df.CSV)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rel, err := cat.Create(df.Manifest, f)
	if err != nil {
		return nil, err
	}
	fp, err := cat.DataFingerprint(df.Manifest.Name)
	if err != nil {
		return nil, err
	}
	u, err := explain.NewUniverse(rel, ucfg)
	if err != nil {
		return nil, err
	}
	return cat, cat.SaveSnapshot(df.Manifest.Name, rel, u, fp)
}

// runPipeline runs one pipeline workload in this process.
func runPipeline(w *workload, p runParams) (*runResult, error) {
	r := newResult(w, p)
	b, err := os.ReadFile(filepath.Join(p.work, inputFile))
	if err != nil {
		return nil, err
	}
	var df dataFile
	if err := json.Unmarshal(b, &df); err != nil {
		return nil, err
	}
	golden, err := loadGolden(p.root, df.Golden)
	if err != nil {
		return nil, err
	}
	q, opts, err := queryOf(df.Manifest)
	if err != nil {
		return nil, err
	}
	ucfg := explain.Config{Measure: q.Measure, Agg: q.Agg, ExplainBy: q.ExplainBy, MaxOrder: opts.MaxOrder}
	name := df.Manifest.Name

	var cat *catalog.Catalog
	for i := 0; i < w.setups; i++ {
		dir := filepath.Join(p.work, fmt.Sprintf("catalog-%d", i))
		t0 := time.Now()
		c, err := putAtRest(dir, df, ucfg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.SetupS = append(r.SetupS, time.Since(t0).Seconds())
		if cat != nil {
			if err := os.RemoveAll(cat.Dir()); err != nil {
				return nil, err
			}
		}
		cat = c
		// Each set-up starts from a clean heap, as the one a user runs
		// would, so the repetitions do not stack up garbage into the peak.
		runtime.GC()
	}
	if st, err := os.Stat(df.CSV); err == nil {
		r.Layer["catalog.csv_mb"] = float64(st.Size()) / 1e6
	}
	if st, err := os.Stat(filepath.Join(cat.Dir(), name, "snapshot.bin")); err == nil {
		r.Layer["catalog.snapshot_mb"] = float64(st.Size()) / 1e6
	}

	var tr *tracer
	if p.trace {
		tr = newTracer(w.name)
	}
	pr := &pipelineRun{r: r, tr: tr, golden: golden, goldenName: df.Golden, q: q, opts: opts}
	rng := rand.New(rand.NewSource(p.seed))
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, cpu0 := gcCPUSeconds()
	start := time.Now()
	deadline := start.Add(time.Duration(p.seconds * float64(time.Second)))
	for iter := 0; iter == 0 || p.more(iter, deadline); iter++ {
		iterStart, opsBefore := time.Now(), r.ops()
		cold := pr.answer("cold", func(op int) (*core.Engine, error) {
			s := tr.start("catalog.load_relation", op)
			rel, err := cat.LoadRelation(name)
			tr.end(s, nil)
			if err != nil {
				return nil, err
			}
			r.Layer["relation.rows"] = float64(rel.NumRows())
			s = tr.start("explain.new_universe", op)
			u, err := explain.NewUniverse(rel, ucfg)
			tr.end(s, nil)
			if err != nil {
				return nil, err
			}
			return pr.newEngine(op, u)
		})
		restore := pr.answer("restore", func(op int) (*core.Engine, error) {
			s := tr.start("catalog.load_snapshot", op)
			_, u, err := cat.LoadSnapshot(name)
			tr.end(s, nil)
			if err != nil {
				return nil, err
			}
			return pr.newEngine(op, u)
		})
		if cold.eng == nil || restore.eng == nil {
			continue
		}
		if !bytes.Equal(cold.digest, restore.digest) {
			r.fail("iteration %d: the snapshot path answered differently from the CSV path", iter)
		}
		for _, i := range rng.Perm(len(goldenKs)) {
			for _, e := range []*answered{&cold, &restore} {
				pr.followup(e, goldenKs[i])
			}
		}
		r.Rates = append(r.Rates, float64(r.ops()-opsBefore)/time.Since(iterStart).Seconds())
	}
	r.WindowS = time.Since(start).Seconds()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	gc1, cpu1 := gcCPUSeconds()
	if ops := r.ops(); ops > 0 {
		r.Layer["go.alloc_mb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / float64(ops)
	}
	if cpu1 > cpu0 {
		r.Layer["go.gc_cpu_fraction"] = (gc1 - gc0) / (cpu1 - cpu0)
	}
	r.PeakRSSMB, err = peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	if tr != nil {
		r.Spans = tr.spans
		pipelineLayers(r, tr)
	}
	return r, nil
}

// pipelineRun carries one pipeline run's state across its operations.
type pipelineRun struct {
	r          *runResult
	tr         *tracer
	golden     goldenSet
	goldenName string
	q          core.Query
	opts       core.Options
}

// answered is an engine built from data at rest and its first answer.
type answered struct {
	eng    *core.Engine
	digest []byte
	// solves and rounds are the engine's cumulative solver counters, so
	// each traced explain reports only its own work.
	solves, rounds int
}

func (pr *pipelineRun) newEngine(op int, u *explain.Universe) (*core.Engine, error) {
	s := pr.tr.start("core.new_engine", op)
	eng, err := core.NewEngineFromUniverse(u, pr.q, pr.opts)
	var c map[string]float64
	if err == nil {
		c = map[string]float64{"candidates": float64(u.NumCandidates()), "eligible": float64(eng.FilteredCount())}
	}
	pr.tr.end(s, c)
	return eng, err
}

// answer times one answer from data at rest: build yields a fresh engine,
// which then answers with an automatically chosen K.
func (pr *pipelineRun) answer(class string, build func(op int) (*core.Engine, error)) answered {
	pr.r.Attempted++
	op := pr.tr.start(class, 0)
	t0 := time.Now()
	var a answered
	eng, err := build(op)
	var res *core.Result
	if err == nil {
		a.eng = eng
		res, err = pr.explain(op, &a, 0)
	}
	d := time.Since(t0)
	pr.tr.end(op, nil)
	if err != nil {
		pr.r.fail("%s: %v", class, err)
		return answered{}
	}
	pr.r.Samples[class] = append(pr.r.Samples[class], ms(d))
	a.digest = digest(res)
	if err := pr.golden.check(res.K, goldenFromResult(pr.goldenName, res)); err != nil {
		pr.r.fail("%s: %v", class, err)
	}
	return a
}

// followup times one explain at a fixed K on a warm engine and checks it
// against the golden corpus.
func (pr *pipelineRun) followup(a *answered, k int) {
	pr.r.Attempted++
	op := pr.tr.start("followup", 0)
	t0 := time.Now()
	res, err := pr.explain(op, a, k)
	d := time.Since(t0)
	pr.tr.end(op, nil)
	if err != nil {
		pr.r.fail("followup k=%d: %v", k, err)
		return
	}
	pr.r.Samples["followup"] = append(pr.r.Samples["followup"], ms(d))
	if err := pr.golden.check(k, goldenFromResult(pr.goldenName, res)); err != nil {
		pr.r.fail("followup: %v", err)
	}
}

// explain runs one explain under op, splitting its time into the
// Cascading Analysts and segmentation shares the engine reports.
func (pr *pipelineRun) explain(op int, a *answered, k int) (*core.Result, error) {
	s := pr.tr.start("core.explain", op)
	res, err := a.eng.ExplainWithKCtx(context.Background(), k)
	pr.tr.end(s, nil)
	if err != nil {
		return nil, err
	}
	if pr.tr != nil {
		pr.tr.derived("cascading.solve", s, res.Timings.Cascading, map[string]float64{
			"solves":       float64(res.Stats.CASolves - a.solves),
			"guess_rounds": float64(res.Stats.GuessRounds - a.rounds),
		})
		pr.tr.derived("segment.optimize", s, res.Timings.Segmentation, map[string]float64{
			"positions": float64(res.Stats.SketchSize),
		})
	}
	a.solves, a.rounds = res.Stats.CASolves, res.Stats.GuessRounds
	return res, nil
}

// digest encodes everything an answer reports — segmentation, K-variance
// curve, explanations and their trendline values — bit-exactly.
func digest(res *core.Result) []byte {
	type seg struct {
		Top    []goldenTop
		Values [][]string
	}
	var d struct {
		Doc       goldenDoc
		KVariance []string
		Series    []string
		Segments  []seg
	}
	d.Doc = goldenFromResult("", res)
	for _, v := range res.KVariance {
		d.KVariance = append(d.KVariance, g64(v))
	}
	for _, v := range res.Series {
		d.Series = append(d.Series, g64(v))
	}
	for _, s := range res.Segments {
		var sg seg
		for _, e := range s.Top {
			var vals []string
			for _, v := range e.Values {
				vals = append(vals, g64(v))
			}
			sg.Values = append(sg.Values, vals)
		}
		d.Segments = append(d.Segments, sg)
	}
	b, err := json.Marshal(d)
	if err != nil {
		panic(err) // strings and ints always marshal
	}
	return b
}

// pipelineLayers derives the per-layer metrics from the run's spans.
func pipelineLayers(r *runResult, tr *tracer) {
	// Each operation's spans by name, in operation order.
	type opSpans struct {
		kind     string
		children map[string]*span
	}
	var ops []*opSpans
	byID := make(map[int]*opSpans)
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.Parent == 0 {
			o := &opSpans{kind: s.Name, children: make(map[string]*span)}
			ops = append(ops, o)
			byID[s.ID] = o
			continue
		}
		byID[s.Op].children[s.Name] = s
	}
	durs := func(kind, name string) []float64 {
		var xs []float64
		for _, o := range ops {
			if s, ok := o.children[name]; ok && (kind == "" || o.kind == kind) {
				xs = append(xs, ms(s.dur()))
			}
		}
		return xs
	}
	L := r.Layer
	L["catalog.load_relation_ms"] = median(durs("cold", "catalog.load_relation"))
	L["catalog.load_snapshot_ms"] = median(durs("restore", "catalog.load_snapshot"))
	L["explain.new_universe_ms"] = median(durs("cold", "explain.new_universe"))
	L["core.new_engine_ms"] = median(durs("", "core.new_engine"))
	L["cascading.ms"] = median(durs("cold", "cascading.solve"))
	L["segment.ms"] = median(durs("cold", "segment.optimize"))
	L["segment.followup_ms"] = median(durs("followup", "segment.optimize"))

	var casMS, solves, rounds float64
	var unattributed []float64
	for _, op := range breakdown(tr.spans) {
		if op.kind == "cold" {
			unattributed = append(unattributed, ms(op.self["unattributed"]))
		}
	}
	for _, o := range ops {
		if o.kind != "cold" {
			continue
		}
		if s := o.children["cascading.solve"]; s != nil {
			casMS += ms(s.dur())
			solves += s.Counters["solves"]
			rounds += s.Counters["guess_rounds"]
			L["cascading.solves"] = s.Counters["solves"]
		}
		if s := o.children["segment.optimize"]; s != nil {
			L["segment.positions"] = s.Counters["positions"]
		}
		if s := o.children["core.new_engine"]; s != nil && s.Counters["candidates"] > 0 {
			L["explain.candidates"] = s.Counters["candidates"]
			L["explain.eligible_share"] = s.Counters["eligible"] / s.Counters["candidates"]
		}
	}
	if solves > 0 {
		L["cascading.us_per_solve"] = 1000 * casMS / solves
		L["cascading.guess_rounds_per_solve"] = rounds / solves
	}
	L["core.unattributed_ms"] = median(unattributed)
	L["trace.overhead_pct"] = 100 * tr.overhead.Seconds() / r.WindowS
}

// gcCPUSeconds returns the process's cumulative GC CPU time and total CPU
// time as the runtime estimates them.
func gcCPUSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}
