// Package timeseries provides the signal utilities TSExplain needs over
// aggregated time series: moving-average smoothing, Gaussian noise
// injection at a target signal-to-noise ratio, and summary statistics.
package timeseries

import "math"

// Mean returns the arithmetic mean, or 0 for an empty series.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// Variance returns the population variance, or 0 for series shorter than
// one point.
func Variance(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	m := Mean(v)
	var ss float64
	for _, x := range v {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(v))
}

// Power returns the mean squared value of the signal (the "signal power"
// used in SNR computations).
func Power(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var ss float64
	for _, x := range v {
		ss += x * x
	}
	return ss / float64(len(v))
}

// MovingAverage returns a centered moving average with the given window
// (clamped near the edges), which is the smoothing TSExplain applies to
// very fuzzy datasets before explaining them (Section 7.4). window <= 1
// returns a copy.
func MovingAverage(v []float64, window int) []float64 {
	out := make([]float64, len(v))
	if window <= 1 {
		copy(out, v)
		return out
	}
	half := window / 2
	// Prefix sums make each output O(1).
	prefix := make([]float64, len(v)+1)
	for i, x := range v {
		prefix[i+1] = prefix[i] + x
	}
	for i := range v {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi >= len(v) {
			hi = len(v) - 1
		}
		out[i] = (prefix[hi+1] - prefix[lo]) / float64(hi-lo+1)
	}
	return out
}

// ZNormalize returns (v − mean)/std. A constant series normalizes to all
// zeros rather than NaNs, matching the convention of matrix-profile
// implementations.
func ZNormalize(v []float64) []float64 {
	out := make([]float64, len(v))
	m := Mean(v)
	sd := math.Sqrt(Variance(v))
	if sd == 0 {
		return out
	}
	for i, x := range v {
		out[i] = (x - m) / sd
	}
	return out
}
