package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between the closest ranks. xs need not be sorted; it is
// not modified. NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentiles are the tail percentiles a timing may be reported at.
var tailPercentiles = []float64{99.9, 99, 95, 90}

// tailPercentile returns the highest tail percentile that has at least
// ten of n samples beyond it, so a reported tail is never one or two
// outliers. ok is false when even p90 has fewer than ten samples beyond.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		// Integer arithmetic in tenths of a percent avoids 1000*0.001
		// rounding below 1.
		if n*int(math.Round((100-p)*10)) >= 10*1000 {
			return p, true
		}
	}
	return 0, false
}

// quartiles returns the first quartile, median and third quartile of xs
// exactly as Python's statistics.quantiles(xs, n=4) computes them (the
// default "exclusive" method), so spreads read the same here as in any
// script that checks this benchmark's results. It needs len(xs) >= 2.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	m := ld + 1
	var out [3]float64
	for i := 1; i < 4; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// Verdicts of a two-sided comparison.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// comparison is one workload × metric row of -compare: the parent runs a
// and the change's runs b of one metric.
type comparison struct {
	MedA, Q1A, Q3A float64
	MedB, Q1B, Q3B float64
	WinsA, WinsB   int // pairs each side won; ties count for neither
	Pairs          int
	Change         float64 // (medB-medA)/medA, signed so that > 0 is worse
	Verdict        string
}

// compareRuns applies the benchmark's acceptance rules to one metric:
//
//   - better: b wins at least nine tenths of the pairs and the medians
//     differ, in b's favour, by more than a's own quartile spread;
//   - worse: b's median is worse than a's by more than bound (a share of
//     a's median);
//   - unresolved: a spread (quartile distance over median) on either
//     side is wider than bound, unless every run of b beats every run of
//     a;
//   - unchanged: otherwise.
//
// Runs are paired in the order given (callers sort both sides by seed).
// Both sides need at least two runs.
func compareRuns(a, b []float64, lowerIsBetter bool, bound float64) comparison {
	var c comparison
	c.Q1A, c.MedA, c.Q3A = quartiles(a)
	c.Q1B, c.MedB, c.Q3B = quartiles(b)
	// worse(x, y) reports whether x is worse than y for this metric.
	worse := func(x, y float64) bool {
		if lowerIsBetter {
			return x > y
		}
		return x < y
	}
	c.Pairs = len(a)
	if len(b) < c.Pairs {
		c.Pairs = len(b)
	}
	for i := 0; i < c.Pairs; i++ {
		switch {
		case worse(a[i], b[i]):
			c.WinsB++
		case worse(b[i], a[i]):
			c.WinsA++
		}
	}
	if c.MedA != 0 {
		c.Change = (c.MedB - c.MedA) / math.Abs(c.MedA)
		if !lowerIsBetter {
			c.Change = -c.Change
		}
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if !worse(x, y) {
				allBetter = false
			}
		}
	}
	spread := func(q1, q3, med float64) float64 {
		if med == 0 {
			return 0
		}
		return (q3 - q1) / math.Abs(med)
	}
	wide := spread(c.Q1A, c.Q3A, c.MedA) > bound || spread(c.Q1B, c.Q3B, c.MedB) > bound
	switch {
	case 10*c.WinsB >= 9*c.Pairs && c.Pairs > 0 && worse(c.MedA, c.MedB) &&
		math.Abs(c.MedB-c.MedA) > c.Q3A-c.Q1A:
		c.Verdict = verdictBetter
	case c.Change > bound:
		c.Verdict = verdictWorse
	case wide && !allBetter:
		c.Verdict = verdictUnresolved
	default:
		c.Verdict = verdictUnchanged
	}
	return c
}
