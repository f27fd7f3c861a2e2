package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// runCompare reads two directories of untraced result files — a parent
// commit's runs (a) and a change's (b), at least two runs per workload a
// side, five or more for a useful verdict — and prints one row per
// workload × end-to-end metric: each side's median and quartiles, how
// many seed-paired runs each side won, and a verdict against the bound
// BENCHMARK.json fixes. It reports whether any metric got worse.
func runCompare(out io.Writer, root, dirA, dirB string) (bool, error) {
	spec, err := loadSpec(root)
	if err != nil {
		return false, err
	}
	a, err := loadResults(dirA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(dirB)
	if err != nil {
		return false, err
	}
	anyWorse := false
	fmt.Fprintf(out, "%-16s %-17s %24s %24s %9s %8s  %s\n", "workload", "metric",
		"A median [q1, q3]", "B median [q1, q3]", "wins A:B", "change", "verdict")
	for _, w := range workloads {
		ra, rb := a[w.name], b[w.name]
		if len(ra) < 2 || len(rb) < 2 {
			if len(ra)+len(rb) > 0 {
				fmt.Fprintf(out, "%-16s needs at least two runs a side (have %d and %d)\n", w.name, len(ra), len(rb))
			}
			continue
		}
		for _, ms := range spec.EndToEnd {
			va, vb := values(ra, ms.Name), values(rb, ms.Name)
			c := compareRuns(va, vb, ms.Better == "lower", ms.Bound)
			if c.Verdict == verdictWorse {
				anyWorse = true
			}
			fmt.Fprintf(out, "%-16s %-17s %24s %24s %4d:%-4d %+7.2f%%  %s (bound %g%%)\n", w.name, ms.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", c.MedA, c.Q1A, c.Q3A),
				fmt.Sprintf("%.4g [%.4g, %.4g]", c.MedB, c.Q1B, c.Q3B),
				c.WinsA, c.WinsB, 100*c.Change, c.Verdict, 100*ms.Bound)
		}
	}
	return anyWorse, nil
}

// loadResults reads the untraced result files in dir, by workload, each
// workload's runs sorted by seed so that two sides pair seed with seed.
func loadResults(dir string) (map[string][]resultFile, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := make(map[string][]resultFile)
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rf.Trace || rf.Workload == "" {
			continue
		}
		out[rf.Workload] = append(out[rf.Workload], rf)
	}
	for _, rs := range out {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	}
	return out, nil
}

func values(rs []resultFile, metric string) []float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = r.Metrics[metric].Value
	}
	return xs
}
