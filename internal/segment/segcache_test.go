package segment

import (
	"testing"

	"repro/internal/cascading"
)

func cacheModes(n int) map[string]*segCache {
	flat := newSegCache(n)
	mapped := &segCache{m: make(map[int64]*cascading.Result)}
	return map[string]*segCache{"flat": flat, "map": mapped}
}

func resWith(g float64) cascading.Result {
	return cascading.Result{Best: []float64{0, g}}
}

func TestSegCacheFlatIdxIsBijective(t *testing.T) {
	const n = 17
	sc := newSegCache(n)
	if sc.n != n {
		t.Fatal("expected flat mode")
	}
	seen := make([]bool, n*(n-1)/2)
	for c := 0; c < n; c++ {
		for tt := c + 1; tt < n; tt++ {
			i := sc.flatIdx(c, tt)
			if i < 0 || i >= len(seen) || seen[i] {
				t.Fatalf("flatIdx(%d,%d) = %d: out of range or duplicate", c, tt, i)
			}
			seen[i] = true
		}
	}
}

func TestSegCacheBasicOps(t *testing.T) {
	for name, sc := range cacheModes(20) {
		t.Run(name, func(t *testing.T) {
			if sc.get(1, 5) != nil {
				t.Fatal("empty cache hit")
			}
			p := sc.put(1, 5, resWith(42))
			if p == nil || p.Best[1] != 42 {
				t.Fatal("put did not return the stored result")
			}
			if got := sc.get(1, 5); got == nil || got.Best[1] != 42 {
				t.Fatal("get after put missed")
			}
			sc.put(0, 19, resWith(7))

			count := 0
			sc.forEach(func(c, tt int, r *cascading.Result) { count++ })
			if count != 2 {
				t.Fatalf("forEach visited %d entries, want 2", count)
			}

			sc.invalidateFrom(10)
			if sc.get(1, 5) == nil {
				t.Error("prefix entry should survive invalidateFrom(10)")
			}
			if sc.get(0, 19) != nil {
				t.Error("suffix entry should be invalidated")
			}

			sc.reset()
			if sc.get(1, 5) != nil {
				t.Error("entry survived reset")
			}
			// The cache stays usable after reset.
			sc.put(2, 3, resWith(1))
			if sc.get(2, 3) == nil {
				t.Error("put after reset missed")
			}
		})
	}
}

// TestSegCacheFlatOutOfRange: segments outside a flat cache's triangle
// must still round-trip through the side map instead of vanishing.
func TestSegCacheFlatOutOfRange(t *testing.T) {
	sc := newSegCache(10)
	sc.put(3, 12, resWith(9)) // t beyond n
	if got := sc.get(3, 12); got == nil || got.Best[1] != 9 {
		t.Error("out-of-range entry not retrievable")
	}
	count := 0
	sc.forEach(func(c, tt int, r *cascading.Result) { count++ })
	if count != 1 {
		t.Errorf("forEach visited %d entries, want 1", count)
	}
	sc.invalidateFrom(11)
	if sc.get(3, 12) != nil {
		t.Error("out-of-range entry survived invalidateFrom")
	}
}

func TestSegCacheModeSelection(t *testing.T) {
	if sc := newSegCache(flatCacheMaxN); sc.n == 0 {
		t.Error("n at the threshold should be flat")
	}
	if sc := newSegCache(flatCacheMaxN + 1); sc.n != 0 {
		t.Error("n past the threshold should fall back to the map")
	}
	if sc := newSegCache(1); sc.n != 0 {
		t.Error("degenerate series should fall back to the map")
	}
}

func TestSegCacheGrow(t *testing.T) {
	sc := newTriCacheCap[cascading.Result](10, 15)
	sc.put(2, 8, resWith(5))
	sc.put(0, 9, resWith(6))
	if sc.get(2, 12) != nil {
		t.Fatal("segment beyond logical length should miss")
	}
	if !sc.grow(14) {
		t.Fatal("grow within capacity refused")
	}
	if got := sc.get(2, 8); got == nil || got.Best[1] != 5 {
		t.Fatal("entry lost across grow")
	}
	sc.put(2, 12, resWith(7)) // now in range
	if got := sc.get(2, 12); got == nil || got.Best[1] != 7 {
		t.Fatal("post-grow segment not cached")
	}
	if sc.grow(16) {
		t.Fatal("grow past capacity should refuse")
	}

	// Headroom never forces map mode for flat-eligible lengths.
	if sc := newTriCacheCap[cascading.Result](800, 1200); sc.n == 0 {
		t.Error("clamped headroom should keep the flat form")
	}
}

func TestSegCacheGenerationWrap(t *testing.T) {
	sc := newSegCache(8)
	sc.cur = ^uint32(0) // one bump from wrapping
	sc.put(0, 1, resWith(3))
	sc.reset()
	if sc.cur == 0 {
		t.Fatal("generation wrapped to the zero tag")
	}
	if sc.get(0, 1) != nil {
		t.Error("entry survived wrapping reset")
	}
	sc.put(0, 1, resWith(4))
	if got := sc.get(0, 1); got == nil || got.Best[1] != 4 {
		t.Error("cache unusable after generation wrap")
	}
}
