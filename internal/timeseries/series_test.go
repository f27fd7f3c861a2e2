package timeseries

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariancePower(t *testing.T) {
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(v); got != 5 {
		t.Errorf("Mean = %g, want 5", got)
	}
	if got := Variance(v); got != 4 {
		t.Errorf("Variance = %g, want 4", got)
	}
	if got := Power([]float64{3, 4}); got != 12.5 {
		t.Errorf("Power = %g, want 12.5", got)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 || Power(nil) != 0 {
		t.Error("empty-slice stats should be 0")
	}
}

func TestMovingAverage(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5}
	got := MovingAverage(v, 3)
	want := []float64{1.5, 2, 3, 4, 4.5}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Errorf("MA[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if !reflect.DeepEqual(MovingAverage(v, 1), v) {
		t.Error("window 1 should copy input")
	}
	cp := MovingAverage(v, 0)
	cp[0] = 42
	if v[0] != 1 {
		t.Error("MovingAverage must not alias its input")
	}
}

func TestMovingAveragePreservesConstant(t *testing.T) {
	f := func(raw uint8, val float64) bool {
		n := int(raw%50) + 2
		if math.IsNaN(val) || math.IsInf(val, 0) {
			val = 1
		}
		// Bound magnitude so the prefix-sum accumulator cannot overflow.
		val = math.Mod(val, 1e12)
		v := make([]float64, n)
		for i := range v {
			v[i] = val
		}
		for _, w := range []int{2, 3, 5, n} {
			got := MovingAverage(v, w)
			for _, g := range got {
				if !almostEqual(g, val, math.Abs(val)*1e-9+1e-9) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestZNormalize(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5}
	z := ZNormalize(v)
	if !almostEqual(Mean(z), 0, 1e-12) {
		t.Errorf("normalized mean = %g", Mean(z))
	}
	if !almostEqual(Variance(z), 1, 1e-12) {
		t.Errorf("normalized variance = %g", Variance(z))
	}
	flat := ZNormalize([]float64{7, 7, 7})
	for _, x := range flat {
		if x != 0 {
			t.Errorf("constant series should normalize to zeros, got %v", flat)
		}
	}
}

func TestSNRAndNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	signal := make([]float64, 5000)
	for i := range signal {
		signal[i] = 100 + 50*math.Sin(float64(i)/20)
	}
	for _, target := range []float64{20, 35, 50} {
		noisy := AddGaussianNoise(signal, target, rng)
		got := SNRdB(signal, noisy)
		if !almostEqual(got, target, 1.0) {
			t.Errorf("target SNR %g dB: measured %g dB", target, got)
		}
	}
	if got := SNRdB(signal, signal); !math.IsInf(got, 1) {
		t.Errorf("identical signals: SNR = %g, want +Inf", got)
	}
	if NoiseSigmaFor(0, 30) != 0 {
		t.Error("zero-power signal should need zero noise")
	}
}
