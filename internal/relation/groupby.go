package relation

import (
	"math/bits"
	"sort"
)

// This file implements the columnar, integer-keyed group-by kernel of the
// precompute path.
//
// The kernel runs in two passes. Pass 1 (PlanGroupBy) scans the rows once,
// packs each row's dictionary-id tuple over the requested dimensions into a
// single uint64 and assigns dense group slots through a map[uint64]int32 —
// no per-row heap allocation, no string hashing. Pass 2 (FillArena) scans the
// rows again and accumulates each row's (sum, count) contribution into a
// single contiguous []SumCount arena of size groups×T, instead of one
// slice allocation per group.
//
// Splitting the passes lets a caller (explain.NewUniverse) plan many
// group-bys first, allocate ONE arena for all of them, and then fill the
// disjoint arena ranges.
//
// When the requested dimensions' dictionary widths cannot be packed into
// 64 bits (astronomical cardinalities), the kernel transparently falls
// back to byte-string keys for slot assignment; the output format and the
// group ordering are identical either way.

// GroupByPlan is the pass-1 state of the columnar kernel: the dense
// slot assignment for every distinct group, sorted into canonical order,
// ready to fill an arena.
type GroupByPlan struct {
	r    *Relation
	dims []int
	m    int

	// packed is true when id tuples fit a uint64 (the common case).
	packed bool
	shifts []uint           // per-dim left-shift amounts for packing
	slots  map[uint64]int32 // packed key -> first-occurrence slot
	sslots map[string]int32 // fallback: byte-string key -> slot

	n        int      // number of distinct groups
	ids      []uint32 // slot-major id tuples, first-occurrence order
	perm     []int32  // slot -> sorted group index (rank)
	rankSlot []int32  // rank -> slot (inverse of perm)

	// rowSlot records each scanned row's slot during pass 1, so the first
	// arena fill is a pure array walk with no key packing or hashing. It
	// is released after that fill (O(rows) transient state); later fills —
	// and the streaming append path — go through the slot maps as before.
	rowSlot []int32
}

// directTableMaxBits bounds the packed keyspace a direct-address slot
// table may cover: 2^22 × 4 bytes = 16 MiB transient, the point past
// which clearing the table costs more than hashing saves.
const directTableMaxBits = 22

// PlanGroupBy runs pass 1 of the columnar group-by kernel over the given
// dimensions for measure m: it discovers every distinct id combination and
// assigns each a dense group index in canonical (id-tuple ascending)
// order. The plan retains no per-row state, so holding many plans at once
// costs O(groups), not O(rows).
func (r *Relation) PlanGroupBy(dims []int, m int) *GroupByPlan {
	return r.planGroupBy(dims, m, false)
}

// planGroupBy is PlanGroupBy with the fallback keying forcible for tests.
func (r *Relation) planGroupBy(dims []int, m int, forceFallback bool) *GroupByPlan {
	p := &GroupByPlan{r: r, dims: append([]int(nil), dims...), m: m}

	// Decide the packing layout: each dimension gets just enough bits for
	// its dictionary. The dims of any realistic explain-by subset fit a
	// uint64 with lots of room to spare.
	p.shifts = make([]uint, len(dims))
	var totalBits uint
	for i, d := range dims {
		w := bitsFor(r.dims[d].Cardinality())
		p.shifts[i] = w
		totalBits += w
	}
	p.packed = totalBits <= 64 && !forceFallback

	p.rowSlot = make([]int32, r.numRows)
	if p.packed {
		p.slots = make(map[uint64]int32, 64)
		// When the packed keyspace is small enough, slot discovery runs
		// against a direct-address table instead of the map: one bounds-
		// checked load per row. The map is still populated per distinct
		// group (cheap — groups ≪ rows) because the streaming append path
		// keys through it after the table is released.
		if tableSize := 1 << totalBits; totalBits <= directTableMaxBits &&
			(totalBits <= 16 || tableSize <= 8*r.numRows) {
			table := make([]int32, tableSize)
			for i := range table {
				table[i] = -1
			}
			for row := 0; row < r.numRows; row++ {
				k := p.rowKey(row)
				s := table[k]
				if s < 0 {
					s = int32(len(p.slots))
					table[k] = s
					p.slots[k] = s
					for _, d := range dims {
						p.ids = append(p.ids, r.dims[d].ids[row])
					}
				}
				p.rowSlot[row] = s
			}
		} else {
			for row := 0; row < r.numRows; row++ {
				k := p.rowKey(row)
				s, ok := p.slots[k]
				if !ok {
					s = int32(len(p.slots))
					p.slots[k] = s
					for _, d := range dims {
						p.ids = append(p.ids, r.dims[d].ids[row])
					}
				}
				p.rowSlot[row] = s
			}
		}
	} else {
		p.sslots = make(map[string]int32, 64)
		buf := make([]byte, 0, len(dims)*4)
		for row := 0; row < r.numRows; row++ {
			buf = p.rowFallbackKey(buf, row)
			s, ok := p.sslots[string(buf)]
			if !ok {
				s = int32(len(p.sslots))
				p.sslots[string(buf)] = s
				for _, d := range dims {
					p.ids = append(p.ids, r.dims[d].ids[row])
				}
			}
			p.rowSlot[row] = s
		}
	}

	if p.packed {
		p.n = len(p.slots)
	} else {
		p.n = len(p.sslots)
	}

	// Sort groups by id tuple so downstream candidate IDs are assigned
	// deterministically regardless of row order. An empty dims list
	// degenerates to at most one grand-total group.
	n := p.n
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	d := len(dims)
	sort.Slice(order, func(a, b int) bool {
		ta := p.ids[int(order[a])*d : int(order[a])*d+d]
		tb := p.ids[int(order[b])*d : int(order[b])*d+d]
		for i := 0; i < d; i++ {
			if ta[i] != tb[i] {
				return ta[i] < tb[i]
			}
		}
		return false
	})
	p.perm = make([]int32, n)
	p.rankSlot = order
	for rank, slot := range order {
		p.perm[slot] = int32(rank)
	}
	return p
}

// GroupIDsAt returns the id tuple of the group with the given rank,
// parallel to the planned dimensions. The slice aliases plan storage and
// must not be modified.
func (p *GroupByPlan) GroupIDsAt(rank int) []uint32 {
	d := len(p.dims)
	s := int(p.rankSlot[rank])
	return p.ids[s*d : s*d+d : s*d+d]
}

// packTuple packs an id tuple with the plan's current shift layout.
//
//tsexplain:hotpath
func (p *GroupByPlan) packTuple(ids []uint32) uint64 {
	var k uint64
	for i, v := range ids {
		k = k<<p.shifts[i] | uint64(v)
	}
	return k
}

// fallbackKey renders an id tuple as the byte-string key of the fallback
// keying scheme. Every fallback path — discovery, fill, append — must
// encode through it (or rowFallbackKey) so the layout exists in exactly
// one place.
func fallbackKey(buf []byte, ids []uint32) []byte {
	buf = buf[:0]
	for _, v := range ids {
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return buf
}

// rowFallbackKey renders the row's id tuple over the planned dimensions
// as a fallback key, reusing buf.
func (p *GroupByPlan) rowFallbackKey(buf []byte, row int) []byte {
	buf = buf[:0]
	for _, d := range p.dims {
		v := p.r.dims[d].ids[row]
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return buf
}

// ensureKeyCapacity re-checks the packing layout against the current
// dictionaries, which may have grown since the plan was built (streaming
// appends introduce new categorical values). When a dimension outgrew its
// bit width the slot map is re-keyed from the stored id tuples: with wider
// shifts while everything still fits 64 bits, otherwise by migrating to
// the byte-string fallback. Either way existing slots and ranks survive.
func (p *GroupByPlan) ensureKeyCapacity() {
	if !p.packed {
		return
	}
	grown := false
	var totalBits uint
	for i, d := range p.dims {
		w := bitsFor(p.r.dims[d].Cardinality())
		if w > p.shifts[i] {
			grown = true
		} else {
			w = p.shifts[i]
		}
		totalBits += w
	}
	if !grown {
		return
	}
	d := len(p.dims)
	if totalBits <= 64 {
		for i, dim := range p.dims {
			if w := bitsFor(p.r.dims[dim].Cardinality()); w > p.shifts[i] {
				p.shifts[i] = w
			}
		}
		slots := make(map[uint64]int32, len(p.slots))
		for slot := 0; slot < p.n; slot++ {
			slots[p.packTuple(p.ids[slot*d:slot*d+d])] = int32(slot)
		}
		p.slots = slots
		return
	}
	p.packed = false
	p.slots = nil
	p.sslots = make(map[string]int32, p.n)
	buf := make([]byte, 0, d*4)
	for slot := 0; slot < p.n; slot++ {
		buf = fallbackKey(buf, p.ids[slot*d:slot*d+d])
		p.sslots[string(buf)] = int32(slot)
	}
}

// AppendRows extends the plan with the relation rows [fromRow, NumRows):
// pass 1 of the append path. Groups first occurring in the delta are
// assigned the ranks after every existing one, ordered by id tuple among
// themselves, so existing ranks — and therefore the candidate IDs built on
// them — stay stable. It returns the number of groups added.
func (p *GroupByPlan) AppendRows(fromRow int) int {
	r := p.r
	p.ensureKeyCapacity()
	oldN := p.n
	if p.packed {
		for row := fromRow; row < r.numRows; row++ {
			k := p.rowKey(row)
			if _, ok := p.slots[k]; !ok {
				p.slots[k] = int32(len(p.slots))
				for _, d := range p.dims {
					p.ids = append(p.ids, r.dims[d].ids[row])
				}
			}
		}
		p.n = len(p.slots)
	} else {
		buf := make([]byte, 0, len(p.dims)*4)
		for row := fromRow; row < r.numRows; row++ {
			buf = p.rowFallbackKey(buf, row)
			if _, ok := p.sslots[string(buf)]; !ok {
				p.sslots[string(buf)] = int32(len(p.sslots))
				for _, d := range p.dims {
					p.ids = append(p.ids, r.dims[d].ids[row])
				}
			}
		}
		p.n = len(p.sslots)
	}
	added := p.n - oldN
	if added == 0 {
		return 0
	}
	// Order the delta's new groups among themselves by id tuple (the same
	// canonical order the initial plan uses), after all existing ranks.
	d := len(p.dims)
	order := make([]int32, added)
	for i := range order {
		order[i] = int32(oldN + i)
	}
	sort.Slice(order, func(a, b int) bool {
		ta := p.ids[int(order[a])*d : int(order[a])*d+d]
		tb := p.ids[int(order[b])*d : int(order[b])*d+d]
		for i := 0; i < d; i++ {
			if ta[i] != tb[i] {
				return ta[i] < tb[i]
			}
		}
		return false
	})
	p.perm = append(p.perm, make([]int32, added)...)
	for i, slot := range order {
		p.perm[slot] = int32(oldN + i)
	}
	p.rankSlot = append(p.rankSlot, order...)
	return added
}

// FillRows accumulates the relation rows [fromRow, NumRows) into
// per-group destination series obtained from the series callback, which
// maps a group's rank to the slice (indexed by time position) that should
// receive its contributions. It is the append path's pass 2: the universe
// hands out views into its shared arena, and only the delta is scanned.
//
//tsexplain:hotpath
func (p *GroupByPlan) FillRows(fromRow int, series func(rank int) []SumCount) {
	r := p.r
	vals := r.measures[p.m].vals
	if p.packed {
		for row := fromRow; row < r.numRows; row++ {
			sc := series(int(p.perm[p.slots[p.rowKey(row)]]))
			s := &sc[r.timeIdx[row]]
			s.Sum += vals[row]
			s.Count++
		}
		return
	}
	buf := make([]byte, 0, len(p.dims)*4)
	for row := fromRow; row < r.numRows; row++ {
		buf = p.rowFallbackKey(buf, row)
		sc := series(int(p.perm[p.sslots[string(buf)]]))
		s := &sc[r.timeIdx[row]]
		s.Sum += vals[row]
		s.Count++
	}
}

// rowKey packs the row's id tuple over the planned dimensions.
//
//tsexplain:hotpath
func (p *GroupByPlan) rowKey(row int) uint64 {
	var k uint64
	for i, d := range p.dims {
		k = k<<p.shifts[i] | uint64(p.r.dims[d].ids[row])
	}
	return k
}

// NumGroups returns the number of distinct groups the plan discovered.
func (p *GroupByPlan) NumGroups() int { return p.n }

// FillArena runs pass 2 into a strided arena: group rank g's series
// occupies arena[g*stride : g*stride+T], with stride ≥ T. The stride lets
// a caller lay groups out with tail headroom so streaming appends extend
// series in place. Distinct plans write to distinct arenas (or disjoint
// ranges of a shared one), so calls on different plans may run
// concurrently.
//
//tsexplain:hotpath
func (p *GroupByPlan) FillArena(arena []SumCount, stride int) {
	r := p.r
	T := r.NumTimestamps()
	if p.NumGroups() == 0 {
		return
	}
	if stride < T || len(arena) < (p.NumGroups()-1)*stride+T {
		panic("relation: GroupByPlan.FillArena arena too small for stride")
	}
	vals := r.measures[p.m].vals
	// The common one-shot flow (plan, then fill once) takes the recorded-
	// slot path: no key packing, no hashing — three indexed loads and one
	// accumulate per row. The record is released afterwards so holding a
	// plan stays O(groups); any later fill re-derives slots from the maps,
	// producing identical output (same rows, same accumulation order).
	if rowSlot := p.rowSlot; rowSlot != nil && len(rowSlot) == r.numRows {
		perm, timeIdx := p.perm, r.timeIdx
		for row := 0; row < r.numRows; row++ {
			g := perm[rowSlot[row]]
			sc := &arena[int(g)*stride+int(timeIdx[row])]
			sc.Sum += vals[row]
			sc.Count++
		}
		p.rowSlot = nil
		return
	}
	if p.packed {
		for row := 0; row < r.numRows; row++ {
			g := p.perm[p.slots[p.rowKey(row)]]
			sc := &arena[int(g)*stride+int(r.timeIdx[row])]
			sc.Sum += vals[row]
			sc.Count++
		}
	} else {
		buf := make([]byte, 0, len(p.dims)*4)
		for row := 0; row < r.numRows; row++ {
			buf = p.rowFallbackKey(buf, row)
			g := p.perm[p.sslots[string(buf)]]
			sc := &arena[int(g)*stride+int(r.timeIdx[row])]
			sc.Sum += vals[row]
			sc.Count++
		}
	}
}

// bitsFor returns the number of bits needed to store ids 0..card-1.
func bitsFor(card int) uint {
	if card <= 1 {
		return 0
	}
	return uint(bits.Len(uint(card - 1)))
}
