package explain

import (
	"fmt"

	"repro/internal/relation"
)

// This file implements the universe half of the warm-restart snapshot
// codec. The expensive part of building a Universe is the group-by over
// the raw relation rows (pass 1 slot discovery + pass 2 arena fill for
// every explain-by subset); the snapshot persists exactly that output —
// the candidate conjunctions and the candidate-major series arena — and
// rebuilds the cheap derived state (candidate index, drill-down
// adjacency, ancestor closure) in memory on load. Snapshots always hold
// the RAW (pre-smoothing) arena: one snapshot therefore serves every
// engine configuration (any smoothing window, optimized or vanilla), and
// smoothing re-runs in O(candidates × T) on the restored arena.
//
// Snapshots are one-shot: a restored universe is not built for streaming
// (the group-by plans are not persisted), so the streaming append path
// re-enumerates from the relation as before.

// uniSnapMagic identifies a universe snapshot section and uniSnapVersion
// is its one format version. Versions 1–3 were earlier layouts; their
// files fail the version check and the caller rebuilds from the CSV.
const (
	uniSnapMagic   = "TSXU"
	uniSnapVersion = 4
)

// Arena layouts, the one byte after the section header. The compact
// layout stores each candidate series through the relation codec's
// SumCountsV2 layouts (sparse zero-runs, varint packing). The raw layout
// stores the candidate-series arena as ONE contiguous little-endian
// block, padded so its absolute file offset is 16-aligned: a
// memory-mapped snapshot can then alias it in place as []SumCount — the
// runtime representation IS the on-disk representation, restore is
// near-zero-copy, and the kernel pages cold candidates out instead of the
// arena living on the heap.
const (
	arenaCompact = 0
	arenaRaw     = 1
)

// ArenaSnapshotThreshold is the raw arena size (candidates × timestamps
// × 16 bytes) at or above which EncodeSnapshot switches to the raw
// mappable arena layout. Below it the compact layout wins on disk — the
// catalog's snapshot ≤ 0.5× CSV footprint contract depends on that for
// the bundled datasets — and materializing a few megabytes on restore
// costs nothing. It is a variable so tests can force the raw layout on
// tiny datasets.
var ArenaSnapshotThreshold int64 = 32 << 20

// EncodeSnapshot appends the universe's snapshot section to sw (the
// catalog writes the relation and universe sections into one checksummed
// file): the query shape (measure, aggregate, explain-by, order
// threshold), the raw overall series, every candidate's conjunction, and
// the candidate arena — raw and mappable at or above
// ArenaSnapshotThreshold (see ArenaSnapshotRaw), compact below it. The
// universe must be unsmoothed — smoothing replaces the raw arena views,
// and persisting a smoothed arena would bake one smoothing window into a
// file meant to serve all of them.
func (u *Universe) EncodeSnapshot(sw *relation.SnapWriter) error {
	if u.smooth != nil {
		return fmt.Errorf("explain: cannot snapshot a smoothed universe (snapshot the raw build)")
	}
	if u.raw == nil {
		return fmt.Errorf("explain: cannot snapshot a derived universe (no series arena)")
	}
	T := len(u.total)
	layout := uint8(arenaCompact)
	if u.ArenaSnapshotRaw() {
		layout = arenaRaw
	}
	sw.Section(uniSnapMagic, uniSnapVersion)
	sw.U8(layout)
	sw.VStr(u.rel.Measure(u.measure).Name())
	sw.U8(uint8(u.agg))
	sw.Uvarint(uint64(len(u.explainBy)))
	for _, d := range u.explainBy {
		sw.VStr(u.rel.Dim(d).Name())
	}
	sw.U8(uint8(u.maxOrder))
	sw.Uvarint(uint64(T))
	sw.SumCountsV2(u.rawTotal[:T])
	sw.Uvarint(uint64(len(u.cands)))
	for _, c := range u.cands {
		sw.U8(uint8(len(c.Conj)))
		for _, p := range c.Conj {
			sw.Uvarint(uint64(p.Dim))
			sw.Uvarint(uint64(p.Value))
		}
	}
	if layout == arenaRaw {
		// One contiguous raw arena, stride T (the headroom stride of a
		// streaming build is not persisted), 16-aligned in the file so a
		// mapping can alias it. Each series is T×16 bytes, so alignment
		// established once holds for every candidate.
		sw.Align16()
		for id := range u.cands {
			sw.SumCounts(u.raw[id*u.arenaCap : id*u.arenaCap+T])
		}
		return nil
	}
	for id := range u.cands {
		sw.SumCountsV2(u.raw[id*u.arenaCap : id*u.arenaCap+T])
	}
	return nil
}

// ArenaSnapshotRaw reports whether EncodeSnapshot will store this
// universe's candidate arena in the raw mappable layout. The catalog
// uses it to skip container compression (a compressed payload cannot be
// mapped).
func (u *Universe) ArenaSnapshotRaw() bool {
	if u.raw == nil || u.smooth != nil {
		return false
	}
	return int64(len(u.cands))*int64(len(u.total))*16 >= ArenaSnapshotThreshold
}

// DecodeUniverseSnapshot decodes one universe section from sr, the
// counterpart of EncodeSnapshot, and binds it to rel, which must be the
// relation the snapshot was built from (the catalog persists both in one
// checksummed file, so they stay consistent). Every reference into the
// relation — measure and dimension names, dictionary ids, series length
// — is re-validated against rel, so a snapshot paired with the wrong
// relation fails loudly and the caller falls back to rebuilding.
//
// With aliasArena set, a raw arena is aliased zero-copy out of the
// reader's backing buffer when the host and offset allow it (see
// relation.SnapReader.AliasSumCounts) — the caller then owns keeping that
// buffer (typically a read-only memory mapping) alive for the universe's
// lifetime, and Universe.ArenaMapped reports true. In every other case
// the arena is materialized on the heap.
func DecodeUniverseSnapshot(sr *relation.SnapReader, rel *relation.Relation, aliasArena bool) (*Universe, error) {
	fail := func(format string, args ...any) (*Universe, error) {
		if err := sr.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("explain: snapshot: "+format, args...)
	}
	sr.Section(uniSnapMagic, uniSnapVersion)
	layout := sr.U8()
	if sr.Err() != nil {
		return nil, sr.Err()
	}
	if layout != arenaCompact && layout != arenaRaw {
		return fail("unknown arena layout %d", layout)
	}
	measureName := sr.VStr()
	m := rel.MeasureIndex(measureName)
	if m < 0 {
		return fail("measure %q not in relation", measureName)
	}
	agg := relation.AggFunc(sr.U8())
	if agg != relation.Sum && agg != relation.Count && agg != relation.Avg {
		return fail("unknown aggregate %d", agg)
	}
	nBy := sr.VLen("explain-by count")
	if sr.Err() != nil {
		return nil, sr.Err()
	}
	explainBy := make([]int, 0, nBy)
	for i := 0; i < nBy; i++ {
		name := sr.VStr()
		d := rel.DimIndex(name)
		if d < 0 {
			return fail("explain-by attribute %q not in relation", name)
		}
		if len(explainBy) > 0 && d <= explainBy[len(explainBy)-1] {
			return fail("explain-by attributes out of order")
		}
		explainBy = append(explainBy, d)
	}
	maxOrder := int(sr.U8())
	if maxOrder < 1 || maxOrder > len(explainBy) {
		return fail("order threshold %d out of range for %d attributes", maxOrder, len(explainBy))
	}
	// The series length is checked against the relation, not the bytes
	// left: a sparse series of any length can encode in two bytes.
	if T := sr.Uvarint(); T != uint64(rel.NumTimestamps()) {
		return fail("series length %d, relation has %d timestamps", T, rel.NumTimestamps())
	}
	T := rel.NumTimestamps()

	u := &Universe{
		rel:       rel,
		agg:       agg,
		measure:   m,
		explainBy: explainBy,
		maxOrder:  maxOrder,
		rawTotal:  make([]relation.SumCount, T),
		arenaCap:  T,
		index:     newCandIndex(rel, maxOrder),
	}
	sr.SumCountsV2Into(u.rawTotal)
	u.total = u.rawTotal

	nCands := sr.VLen("candidate count")
	if sr.Err() != nil {
		return nil, sr.Err()
	}
	// The arena allocation is bounded by what the payload can back: a raw
	// arena must fit in the bytes left, and a compact one (whose sparse
	// series can be far smaller than their decoded form) stays under the
	// entry cap.
	if T > 0 && nCands > snapArenaCapEntries/T {
		return fail("candidate count %d × %d timestamps exceeds sanity cap", nCands, T)
	}
	u.cands = make([]*Candidate, 0, nCands)
	for id := 0; id < nCands; id++ {
		order := int(sr.U8())
		if sr.Err() != nil {
			return nil, sr.Err()
		}
		if order < 1 || order > maxOrder {
			return fail("candidate %d order %d out of range (β̄ = %d)", id, order, maxOrder)
		}
		conj := make(relation.Conjunction, order)
		for i := range conj {
			dim, val := sr.Uvarint(), sr.Uvarint()
			if sr.Err() != nil {
				return nil, sr.Err()
			}
			if dim >= uint64(rel.NumDims()) {
				return fail("candidate %d references dimension %d of %d", id, dim, rel.NumDims())
			}
			if card := rel.Dim(int(dim)).Cardinality(); val >= uint64(card) {
				return fail("candidate %d references value %d of dimension %q (%d values)",
					id, val, rel.Dim(int(dim)).Name(), card)
			}
			if i > 0 && int(dim) <= conj[i-1].Dim {
				return fail("candidate %d conjunction not in canonical order", id)
			}
			conj[i] = relation.Pred{Dim: int(dim), Value: uint32(val)}
		}
		if _, dup := u.index.lookup(conj); dup {
			return fail("candidate %d duplicates an earlier conjunction", id)
		}
		u.cands = append(u.cands, &Candidate{ID: id, Conj: conj})
		u.index.insert(conj, id)
	}
	if layout == arenaRaw {
		// One contiguous raw block, stride T, 16-aligned in the file.
		// Alias it in place when the caller allows and the buffer
		// cooperates; otherwise bulk-copy it (still one dense
		// little-endian read, no per-series layout dispatch).
		sr.SkipPad()
		if sr.Err() != nil {
			return nil, sr.Err()
		}
		if nCands*T > sr.Remaining()/16 {
			return fail("raw arena of %d × %d entries exceeds the %d bytes left", nCands, T, sr.Remaining())
		}
		if aliasArena {
			if arena, ok := sr.AliasSumCounts(nCands * T); ok {
				u.raw = arena
				u.arenaMapped = true
			}
		}
		if u.raw == nil {
			u.raw = make([]relation.SumCount, nCands*T)
			sr.SumCountsInto(u.raw)
		}
		for id, c := range u.cands {
			c.Series = u.raw[id*T : id*T+T : (id+1)*T]
		}
	} else {
		u.raw = make([]relation.SumCount, nCands*T)
		for id, c := range u.cands {
			s := u.raw[id*T : id*T+T : (id+1)*T]
			sr.SumCountsV2Into(s)
			c.Series = s
		}
	}
	if err := sr.Err(); err != nil {
		return nil, err
	}
	u.buildDerivedIndexes()
	return u, nil
}

// snapArenaCapEntries bounds the decoded arena to ~2 GiB of SumCounts so
// corrupt candidate counts cannot trigger absurd allocations.
const snapArenaCapEntries = 1 << 27
