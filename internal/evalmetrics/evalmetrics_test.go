package evalmetrics

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestDistancePercentExactMatch(t *testing.T) {
	truth := []int{0, 30, 60, 99}
	if got := DistancePercent(truth, truth, 100); got != 0 {
		t.Errorf("exact match distance = %g, want 0", got)
	}
}

func TestDistancePercentDisplacement(t *testing.T) {
	truth := []int{0, 30, 60, 99}
	got := []int{0, 32, 55, 99}
	// Displacement 2 + 5 = 7, segments = 3, n = 100: 100·7/300.
	want := 100.0 * 7 / 300
	if d := DistancePercent(got, truth, 100); math.Abs(d-want) > 1e-9 {
		t.Errorf("distance = %g, want %g", d, want)
	}
}

func TestDistancePercentMismatchedK(t *testing.T) {
	truth := []int{0, 30, 60, 99} // 3 segments
	got := []int{0, 30, 99}       // 2 segments: one truth cut unmatched
	// Matching 30↔30 costs 0; unmatched cut 60 costs n=100; denom 3·100.
	want := 100.0 * 100 / 300
	if d := DistancePercent(got, truth, 100); math.Abs(d-want) > 1e-9 {
		t.Errorf("distance = %g, want %g", d, want)
	}
	// Symmetric case: extra cut in output.
	d1 := DistancePercent(truth, got, 100)
	if math.Abs(d1-want) > 1e-9 {
		t.Errorf("reverse distance = %g, want %g", d1, want)
	}
}

func TestDistancePercentTrivialSegmentations(t *testing.T) {
	if got := DistancePercent([]int{0, 99}, []int{0, 99}, 100); got != 0 {
		t.Errorf("K=1 vs K=1 distance = %g, want 0", got)
	}
}

func TestDistancePercentSymmetricProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(seedA, seedB uint8) bool {
		n := 100
		ka := 2 + int(seedA)%5
		kb := 2 + int(seedB)%5
		a := RandomScheme(rng, n, ka)
		b := RandomScheme(rng, n, kb)
		da := DistancePercent(a, b, n)
		db := DistancePercent(b, a, n)
		return math.Abs(da-db) < 1e-9 && da >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRandomScheme(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		k := 2 + rng.Intn(8)
		s := RandomScheme(rng, 100, k)
		if len(s) != k+1 {
			t.Fatalf("scheme has %d cuts, want %d", len(s), k+1)
		}
		if s[0] != 0 || s[len(s)-1] != 99 {
			t.Fatalf("scheme endpoints wrong: %v", s)
		}
		if !sort.IntsAreSorted(s) {
			t.Fatalf("scheme not sorted: %v", s)
		}
		for i := 1; i < len(s); i++ {
			if s[i] == s[i-1] {
				t.Fatalf("duplicate cut in %v", s)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("K too large should panic")
		}
	}()
	RandomScheme(rng, 5, 10)
}

func TestCompetitionRanks(t *testing.T) {
	got := CompetitionRanks([]float64{3, 1, 2})
	want := []float64{3, 1, 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ranks = %v, want %v", got, want)
	}
	// Ties share the smallest rank of their group ("1224" ranking).
	got = CompetitionRanks([]float64{1, 1, 5, 2})
	want = []float64{1, 1, 4, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tied ranks = %v, want %v", got, want)
	}
	if got := CompetitionRanks(nil); len(got) != 0 {
		t.Errorf("empty ranks = %v", got)
	}
}
