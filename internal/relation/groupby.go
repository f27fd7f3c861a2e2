package relation

import (
	"math/bits"
	"slices"
)

// This file implements the columnar, integer-keyed group-by kernel of the
// precompute path.
//
// The kernel runs in two passes. Pass 1 (PlanGroupBy over every row,
// AppendRows over a delta; both run extend) scans the rows once,
// packs each row's dictionary-id tuple over the requested dimensions into a
// single uint64 and assigns dense group slots through a map[uint64]int32 —
// no per-row heap allocation, no string hashing. Pass 2 (FillArena) scans the
// rows again and accumulates each row's (sum, count) contribution into a
// single contiguous []SumCount arena of size groups×T, instead of one
// slice allocation per group.
//
// Splitting the passes lets a caller (explain's universe growth) plan many
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

	// rowSlot records each row's slot during the plan's first extension,
	// so the first arena fill is a pure array walk with no key packing or
	// hashing. It is released after that fill (O(rows) transient state);
	// later fills — and the streaming append path — key through the slot
	// maps.
	rowSlot []int32
}

// directTableMaxBits bounds the packed keyspace a direct-address slot
// table may cover: 2^22 × 4 bytes = 16 MiB transient, the point past
// which clearing the table costs more than hashing saves.
const directTableMaxBits = 22

// PlanGroupBy runs pass 1 of the columnar group-by kernel over the given
// dimensions for measure m: it discovers every distinct id combination and
// assigns each a dense group index in canonical (id-tuple ascending)
// order. The plan retains no per-row state beyond the slot record its
// first fill releases, so holding many plans costs O(groups), not O(rows).
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
	if p.packed {
		p.slots = make(map[uint64]int32, 64)
	} else {
		p.sslots = make(map[string]int32, 64)
	}
	p.extend(0)
	return p
}

// extend discovers the groups first occurring in rows [fromRow, NumRows)
// and ranks them after every existing group, ordered by id tuple among
// themselves, so existing ranks — and the candidate IDs built on them —
// stay put and no rank depends on row order. It returns the number of
// groups added. A plan's first extension records each row's slot for
// FillArena and, when the packed keyspace is small enough, discovers
// slots through a direct-address table: one bounds-checked load per row.
// The map is still populated per distinct group (cheap — groups ≪ rows)
// because later extensions and fills key through it.
func (p *GroupByPlan) extend(fromRow int) int {
	r := p.r
	oldN := p.n
	if oldN == 0 {
		p.rowSlot = make([]int32, r.numRows)
	}
	var totalBits uint
	for _, w := range p.shifts {
		totalBits += w
	}
	switch tableSize := 1 << totalBits; {
	case p.packed && oldN == 0 && totalBits <= directTableMaxBits &&
		(totalBits <= 16 || tableSize <= 8*r.numRows):
		table := make([]int32, tableSize)
		for i := range table {
			table[i] = -1
		}
		for row := fromRow; row < r.numRows; row++ {
			k := p.rowKey(row)
			s := table[k]
			if s < 0 {
				s = p.addGroup(row)
				table[k] = s
				p.slots[k] = s
			}
			p.rowSlot[row] = s
		}
	case p.packed:
		for row := fromRow; row < r.numRows; row++ {
			k := p.rowKey(row)
			s, ok := p.slots[k]
			if !ok {
				s = p.addGroup(row)
				p.slots[k] = s
			}
			if oldN == 0 {
				p.rowSlot[row] = s
			}
		}
	default:
		buf := make([]byte, 0, len(p.dims)*4)
		for row := fromRow; row < r.numRows; row++ {
			buf = p.rowFallbackKey(buf, row)
			s, ok := p.sslots[string(buf)]
			if !ok {
				s = p.addGroup(row)
				p.sslots[string(buf)] = s
			}
			if oldN == 0 {
				p.rowSlot[row] = s
			}
		}
	}

	added := p.n - oldN
	p.rankSlot = append(p.rankSlot, make([]int32, added)...)
	order := p.rankSlot[oldN:]
	for i := range order {
		order[i] = int32(oldN + i)
	}
	slices.SortFunc(order, p.compareTuples)
	p.perm = append(p.perm, make([]int32, added)...)
	for i, slot := range order {
		p.perm[slot] = int32(oldN + i)
	}
	return added
}

// addGroup gives the group of the row the next slot and records its id
// tuple.
func (p *GroupByPlan) addGroup(row int) int32 {
	for _, d := range p.dims {
		p.ids = append(p.ids, p.r.dims[d].ids[row])
	}
	p.n++
	return int32(p.n - 1)
}

// compareTuples orders two slots by their id tuples, the canonical group
// order.
func (p *GroupByPlan) compareTuples(a, b int32) int {
	d := len(p.dims)
	return slices.Compare(p.ids[int(a)*d:int(a)*d+d], p.ids[int(b)*d:int(b)*d+d])
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
	p.ensureKeyCapacity()
	return p.extend(fromRow)
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
	// The first fill after planning walks the recorded slots: no key
	// packing, no hashing — three indexed loads and one accumulate per
	// row. The record is released afterwards so holding a plan stays
	// O(groups).
	rowSlot := p.rowSlot
	if len(rowSlot) != r.numRows {
		p.refill(arena, stride)
		return
	}
	vals := r.measures[p.m].vals
	perm, timeIdx := p.perm, r.timeIdx
	for row := 0; row < r.numRows; row++ {
		g := perm[rowSlot[row]]
		sc := &arena[int(g)*stride+int(timeIdx[row])]
		sc.Sum += vals[row]
		sc.Count++
	}
	p.rowSlot = nil
}

// refill is FillArena for a plan whose slot record is gone: every row's
// slot is re-derived from the key maps through FillRows, with the same
// rows in the same accumulation order.
func (p *GroupByPlan) refill(arena []SumCount, stride int) {
	T := p.r.NumTimestamps()
	p.FillRows(0, func(rank int) []SumCount { return arena[rank*stride : rank*stride+T] })
}

// bitsFor returns the number of bits needed to store ids 0..card-1.
func bitsFor(card int) uint {
	if card <= 1 {
		return 0
	}
	return uint(bits.Len(uint(card - 1)))
}
