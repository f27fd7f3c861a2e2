package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"
)

// serve-explore: two analysts explore four catalog datasets through the
// server, each waiting for an answer before asking the next question
// (closed loop). Half the questions are explains over K 0–8 and a mix of
// smoothing windows, a quarter slices (the root or one drill-down
// child), a quarter diffs between two random labels. A warm-up builds
// every engine first, so the window measures the steady state: explains
// on pooled engines (the result cache is kept small enough to miss),
// slices read from and diffs solved on the shared ad-hoc engine, and the
// registry's admission and pool lookups around them.

// exploreDatasets is the workload's dataset mix.
var exploreDatasets = []string{"liquor", "covid", "sp500", "stream"}

// exploreSmooths is the smoothing mix: mostly the dataset default (0),
// sometimes a window that needs its own engine.
var exploreSmooths = []int{0, 0, 0, 0, 3, 5, 7, 14}

// exploreMaxK is the largest K the explains ask for.
const exploreMaxK = 8

// exploreFlags configure the server: one shard, one worker per core, and
// the smallest result cache (8 answers), so explains reach the pooled
// engines instead of replaying cached answers. With the default cache
// every answer of the mix fits, and the window measured only loopback
// round trips of ~0.15 ms, whose run-to-run spread was 28%.
var exploreFlags = []string{"-shards", "1", "-workers", "2", "-result-cache", "8"}

// exploreTarget is one dataset as the clients see it.
type exploreTarget struct {
	name       string
	golden     goldenSet // nil when the corpus does not pin the dataset
	goldenName string
	labels     []string
	pos        map[string]int
	children   []string // drill-down expressions "attr=value" under the root
}

// sliceBody is the part of a /api/slice answer the benchmark reads.
type sliceBody struct {
	Labels    []string  `json:"labels"`
	Series    []float64 `json:"series"`
	DrillDown []struct {
		Attribute string   `json:"attribute"`
		Children  []string `json:"children"`
	} `json:"drillDown"`
}

// rootSlice reads a dataset's root slice: its time labels, their
// positions, and the drill-down children under the root.
func rootSlice(c *http.Client, base, name string) (*sliceBody, map[string]int, error) {
	code, body, err := do(c, "GET", base+query("/api/slice", "dataset", name), "", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("status %d: %.200s", code, body)
	}
	var sb sliceBody
	if err == nil {
		err = json.Unmarshal(body, &sb)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("reading %s: %w", name, err)
	}
	pos := make(map[string]int, len(sb.Labels))
	for i, l := range sb.Labels {
		pos[l] = i
	}
	return &sb, pos, nil
}

func runExplore(w *workload, p runParams, bin string) (*runResult, error) {
	r := newResult(w, p)
	names := exploreDatasets
	if len(p.exploreDatasets) > 0 {
		names = p.exploreDatasets
	}
	var ups []upload
	targets := make([]*exploreTarget, len(names))
	for i, name := range names {
		df, err := writeDataset(p.work, name, "bench-"+name)
		if err != nil {
			return nil, err
		}
		up, err := prepareUpload(df)
		if err != nil {
			return nil, err
		}
		ups = append(ups, up)
		targets[i] = &exploreTarget{name: df.Manifest.Name, goldenName: df.Golden}
		if df.Golden != "" {
			if targets[i].golden, err = loadGolden(p.root, df.Golden); err != nil {
				return nil, err
			}
		}
	}

	c := newLoadClient()
	defer c.CloseIdleConnections()
	srv, setup, err := serveSetup(w, p, bin, exploreFlags, ups, c)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	r.SetupS = setup

	// Warm-up, before the window: every explain of the mix once, which
	// builds every engine the mix touches (about 130 MB of pooled engines,
	// within the default budget) and solves their segments. Engine builds
	// left to the window are a handful of half-second liquor events whose
	// count depends on the seed: with a 64 MiB budget and no warm-up,
	// throughput varied from 68 to 1,594 requests/s between seeds.
	for _, t := range targets {
		seen := make(map[int]bool)
		for _, smooth := range exploreSmooths {
			if seen[smooth] {
				continue
			}
			seen[smooth] = true
			for k := 0; k <= exploreMaxK; k++ {
				u := query("/api/explain", "dataset", t.name, "k", fmt.Sprint(k), "smooth", fmt.Sprint(smooth))
				r.Attempted++
				code, _, err := do(c, "GET", srv.base+u, "", nil)
				if err != nil || code != http.StatusOK {
					r.fail("warm-up %s: status %d, %v", u, code, err)
				}
			}
		}
	}
	// Each dataset's labels and drill-down children, read once before the
	// window; this also builds the ad-hoc engine slices and diffs share.
	// /api/slice cannot address a value containing '&' (the expression
	// separator), so such children are left out and counted.
	for _, t := range targets {
		sb, pos, err := rootSlice(c, srv.base, t.name)
		if err != nil {
			return nil, err
		}
		t.labels, t.pos = sb.Labels, pos
		for _, dd := range sb.DrillDown {
			for _, v := range dd.Children {
				if strings.Contains(v, "&") {
					r.Notes["slice_children_skipped"]++
					continue
				}
				t.children = append(t.children, dd.Attribute+"="+v)
			}
		}
	}

	err = serveWindow(r, p, c, srv, func(start, deadline time.Time) []*clientLog {
		logs := make([]*clientLog, 2)
		var wg sync.WaitGroup
		for i := range logs {
			logs[i] = newClientLog(w.name, start, p.trace)
			wg.Add(1)
			go func(l *clientLog, rng *rand.Rand) {
				defer wg.Done()
				for n := 0; p.more(n, deadline); n++ {
					exploreOne(c, srv.base, targets, rng, l)
				}
			}(logs[i], rand.New(rand.NewSource(p.seed*2+int64(i))))
		}
		wg.Wait()
		return logs
	})
	return r, err
}

// exploreOne draws and sends one request of the mix.
func exploreOne(c *http.Client, base string, targets []*exploreTarget, rng *rand.Rand, l *clientLog) {
	t := targets[rng.Intn(len(targets))]
	switch rng.Intn(4) {
	case 0, 1:
		k := rng.Intn(exploreMaxK + 1)
		smooth := exploreSmooths[rng.Intn(len(exploreSmooths))]
		u := query("/api/explain", "dataset", t.name, "k", fmt.Sprint(k), "smooth", fmt.Sprint(smooth))
		resp, ok := l.timed(c, "explain", "GET", base+u, "", nil)
		if !ok {
			return
		}
		// Smooth 0 is the dataset's default configuration, the one the
		// golden corpus pins.
		golden := t.golden
		if smooth != 0 || golden[k] == nil {
			golden = nil
		}
		l.explainAnswer(u, resp, golden, t.goldenName, t.pos)
	case 2:
		expr := ""
		if len(t.children) > 0 && rng.Intn(2) == 1 {
			expr = t.children[rng.Intn(len(t.children))]
		}
		u := query("/api/slice", "dataset", t.name, "expr", expr)
		resp, ok := l.timed(c, "slice", "GET", base+u, "", nil)
		if !ok {
			return
		}
		var sb sliceBody
		if err := json.Unmarshal(resp, &sb); err != nil || len(sb.Series) != len(t.labels) {
			l.fail("slice %s: answer has %d points, want %d (%v)", u, len(sb.Series), len(t.labels), err)
		}
	default:
		n := len(t.labels)
		from := rng.Intn(n - 1)
		to := from + 1 + rng.Intn(n-1-from)
		u := query("/api/diff", "dataset", t.name, "from", t.labels[from], "to", t.labels[to])
		resp, ok := l.timed(c, "diff", "GET", base+u, "", nil)
		if !ok {
			return
		}
		var db struct {
			Top []json.RawMessage `json:"top"`
		}
		if err := json.Unmarshal(resp, &db); err != nil {
			l.fail("diff %s: %v", u, err)
		}
	}
}
