package explain

import (
	"math"
	"testing"

	"repro/internal/relation"
)

// buildNoisy builds a one-category relation with a sawtooth series so
// smoothing has a visible effect.
func buildNoisy(t *testing.T) *relation.Relation {
	t.Helper()
	b := relation.NewBuilder("x", "d", []string{"c"}, []string{"v"})
	for i := 0; i < 12; i++ {
		v := 100.0
		if i%2 == 0 {
			v = 200
		}
		label := string(rune('a' + i))
		_ = b.Append(label, []string{"only"}, []float64{v})
	}
	r, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSmooth(t *testing.T) {
	r := buildNoisy(t)
	u, err := NewUniverse(r, Config{Measure: "v", Agg: relation.Sum})
	if err != nil {
		t.Fatal(err)
	}
	before := u.TotalValues()
	u.Smooth(3)
	after := u.TotalValues()
	// Interior points become local averages: sawtooth flattens.
	varBefore, varAfter := spread(before[2:10]), spread(after[2:10])
	if varAfter >= varBefore {
		t.Errorf("smoothing did not reduce spread: %g -> %g", varBefore, varAfter)
	}
	// The candidate series must be smoothed consistently with the total
	// (one category: they are equal).
	cand := u.CandidateValues(0)
	for i := range after {
		if math.Abs(cand[i]-after[i]) > 1e-9 {
			t.Fatalf("candidate and total smoothed differently at %d", i)
		}
	}
	// window ≤ 1 is a no-op.
	u2, _ := NewUniverse(r, Config{Measure: "v", Agg: relation.Sum})
	u2.Smooth(1)
	again := u2.TotalValues()
	for i := range before {
		if again[i] != before[i] {
			t.Fatal("Smooth(1) changed values")
		}
	}
}

func spread(v []float64) float64 {
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return hi - lo
}
