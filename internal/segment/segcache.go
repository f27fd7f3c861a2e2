package segment

import "repro/internal/cascading"

// triCache stores one value per segment (c, t), 0 ≤ c < t < n.
//
// For series up to flatCacheMaxN points it is a flat upper-triangular
// table of n(n-1)/2 values with a generation tag per entry: probes are an
// index computation instead of a map hash, values are stored unboxed, and
// reset is a generation bump instead of a reallocation. Longer series fall
// back to a map form, which also keeps sketched runs over huge series
// (sparse position sets) from paying for an enormous triangle. The flat
// form is selected on length alone, so a sketched run over a short series
// still allocates its (small) triangle.
type triCache[V any] struct {
	n    int // logical series length; flat when > 0
	capN int // series length the triangle was allocated for (≥ n)
	flat []V
	gen  []uint32
	cur  uint32

	m map[int64]*V
}

// segCache is the Explainer's per-segment cache of Cascading Analysts
// results.
type segCache = triCache[cascading.Result]

// flatCacheMaxN bounds the flat form: 1024 points means at most ~523k
// entries (~25 MB of results), past which the triangle's footprint
// outgrows the map's overhead for the densities the DP produces.
const flatCacheMaxN = 1024

func newSegCache(n int) *segCache { return newTriCacheCap[cascading.Result](n, n) }

// newTriCacheCap allocates a cache for capN points that logically serves
// n.
func newTriCacheCap[V any](n, capN int) *triCache[V] {
	if capN < n {
		capN = n
	}
	if capN > flatCacheMaxN {
		// Headroom is an optimization; never let it push an otherwise
		// flat-eligible length into the map form.
		capN = flatCacheMaxN
	}
	if n >= 2 && n <= flatCacheMaxN {
		size := capN * (capN - 1) / 2
		return &triCache[V]{
			n:    n,
			capN: capN,
			flat: make([]V, size),
			gen:  make([]uint32, size),
			cur:  1,
		}
	}
	return &triCache[V]{m: make(map[int64]*V)}
}

// flatIdx maps the segment (c, t), c < t, onto the upper triangle. The
// stride is the allocated capacity so indexes stay stable when the
// logical length grows.
func (sc *triCache[V]) flatIdx(c, t int) int {
	return c*(2*sc.capN-c-1)/2 + (t - c - 1)
}

// grow retargets the cache to a series of length n without moving any
// entry. It reports false when the flat triangle lacks the capacity (the
// caller must then migrate into a fresh cache). Map-backed caches are
// length-independent and always succeed.
func (sc *triCache[V]) grow(n int) bool {
	if sc.n == 0 {
		return true
	}
	if n > sc.capN {
		return false
	}
	if n > sc.n {
		sc.n = n
	}
	return true
}

// resize returns a cache serving a series of length n that holds every
// live entry of sc: sc itself when its triangle has room, otherwise a
// fresh cache allocated with half again as much headroom, into which the
// entries migrate verbatim.
func (sc *triCache[V]) resize(n int) *triCache[V] {
	if sc.grow(n) {
		return sc
	}
	next := newTriCacheCap[V](n, n+n/2)
	sc.forEach(func(c, t int, v *V) {
		next.put(c, t, *v)
	})
	return next
}

// get returns the cached value for [c, t], or nil. Segments outside a
// flat cache's triangle (API misuse) are probed in the side map put
// maintains for them.
func (sc *triCache[V]) get(c, t int) *V {
	if sc.n > 0 && c >= 0 && t < sc.n && c < t {
		i := sc.flatIdx(c, t)
		if sc.gen[i] != sc.cur {
			return nil
		}
		return &sc.flat[i]
	}
	return sc.m[segKey(c, t)]
}

// put stores the value for [c, t] and returns a pointer that stays valid
// until the entry is invalidated or overwritten. Only the map form boxes
// the value; the flat form stores it in place.
func (sc *triCache[V]) put(c, t int, v V) *V {
	if sc.n > 0 && c >= 0 && t < sc.n && c < t {
		i := sc.flatIdx(c, t)
		sc.flat[i] = v
		sc.gen[i] = sc.cur
		return &sc.flat[i]
	}
	if sc.m == nil {
		// A flat cache asked to store an out-of-range segment (only
		// possible through API misuse); keep it anyway in a side map.
		sc.m = make(map[int64]*V)
	}
	boxed := new(V)
	*boxed = v
	sc.m[segKey(c, t)] = boxed
	return boxed
}

// reset invalidates every entry. For the flat form this is a generation
// bump — O(1), no allocation, no clearing.
func (sc *triCache[V]) reset() {
	if sc.n > 0 {
		sc.cur++
		if sc.cur == 0 { // generation counter wrapped: clear tags once
			clear(sc.gen)
			sc.cur = 1
		}
	}
	if sc.m != nil {
		sc.m = make(map[int64]*V)
	}
}

// invalidateFrom drops every segment touching a point at or after p.
// Segments satisfy c < t, so touching ≥ p is exactly t ≥ p; the flat scan
// covers only those entries — O(n·(n−p)), which the streaming append path
// (invalidating a short tail every update) relies on.
func (sc *triCache[V]) invalidateFrom(p int) {
	if sc.n > 0 {
		for c := 0; c < sc.n; c++ {
			lo := p
			if lo <= c {
				lo = c + 1
			}
			for t := lo; t < sc.n; t++ {
				sc.gen[sc.flatIdx(c, t)] = 0
			}
		}
	}
	//tsexplain:unordered per-entry predicate delete; entries are independent
	for key := range sc.m {
		c, t := key>>segKeyShift, key&(1<<segKeyShift-1)
		if t >= int64(p) || c >= int64(p) {
			delete(sc.m, key)
		}
	}
}

// forEach visits every live entry. The visited pointers obey put's
// validity rule; mutating the cache during iteration is not allowed.
func (sc *triCache[V]) forEach(fn func(c, t int, v *V)) {
	if sc.n > 0 {
		for c := 0; c < sc.n; c++ {
			for t := c + 1; t < sc.n; t++ {
				if i := sc.flatIdx(c, t); sc.gen[i] == sc.cur {
					fn(c, t, &sc.flat[i])
				}
			}
		}
	}
	//tsexplain:unordered forEach contract: fn must be order-insensitive (stats, rescans)
	for key, v := range sc.m {
		fn(int(key>>segKeyShift), int(key&(1<<segKeyShift-1)), v)
	}
}

// bytes is the cache's heap footprint: the flat triangle with its tags,
// or the boxed entries of the map form (map overhead not counted).
func (sc *triCache[V]) bytes(entry int64) int64 {
	return (entry+4)*int64(len(sc.flat)) + entry*int64(len(sc.m))
}
