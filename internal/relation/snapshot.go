package relation

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
)

// This file implements the relation half of the warm-restart snapshot
// codec: an endianness-stable binary encoding of a Relation's
// dictionary-encoded columns. A server restart decodes the snapshot
// instead of re-parsing (and re-dictionary-encoding) the source CSV; the
// companion universe codec in internal/explain then skips the group-by
// and planning passes entirely. All multi-byte values are little-endian
// regardless of host byte order, so a snapshot written on one machine
// loads on any other. Both codecs encode into and decode from one
// in-memory payload; the catalog wraps it in a checksummed container.

// relSnapMagic identifies a relation snapshot section and relSnapVersion
// is its one format version: varint lengths and id columns, delta-coded
// time indexes, per-column float layouts, and a trailer of declared
// hierarchies and derived-column records (two zero counts when the
// relation has none). Versions 1–3 were earlier layouts. Their files fail
// the version check instead of being mis-decoded, and the caller rebuilds
// from the CSV: snapshots are an optimization, so an old file costs one
// rebuild.
const (
	relSnapMagic   = "TSXR"
	relSnapVersion = 4
)

// SnapWriter appends the little-endian primitives both snapshot codecs
// (relation here, universe in internal/explain) share to one in-memory
// payload. The zero value is ready to use.
type SnapWriter struct {
	buf  []byte
	base int64 // absolute offset of byte 0 in the final file (SetAbsBase)
}

// Bytes returns the payload encoded so far.
func (sw *SnapWriter) Bytes() []byte { return sw.buf }

// SetAbsBase records the absolute file offset at which this writer's
// byte 0 will land (the container header length). Align16 uses it so
// alignment padding is computed against the final on-disk position —
// what a page-aligned mmap of the whole file actually sees — rather
// than the payload-relative one.
func (sw *SnapWriter) SetAbsBase(n int64) { sw.base = n }

// Section writes a section header: the magic as raw bytes, then the
// format version.
func (sw *SnapWriter) Section(magic string, version uint8) {
	sw.buf = append(append(sw.buf, magic...), version)
}

// zeroPad backs alignment padding writes.
var zeroPad [16]byte

// Align16 emits a one-byte pad length followed by that many zero bytes,
// chosen so the NEXT byte written lands on a 16-byte boundary of the
// final file (relative to SetAbsBase). The decoder skips it with
// SkipPad. 16-byte alignment makes a raw []SumCount arena in the file
// alias-able in place: SumCount is two float64s, and Go's checkptr mode
// requires the aliased pointer to be at least 8-aligned.
func (sw *SnapWriter) Align16() {
	pad := (16 - (sw.base+int64(len(sw.buf))+1)%16) % 16
	sw.buf = append(append(sw.buf, uint8(pad)), zeroPad[:pad]...)
}

// U8 and F64 are the fixed-width little-endian emitters shared by the
// snapshot codecs.
func (sw *SnapWriter) U8(v uint8) { sw.buf = append(sw.buf, v) }

func (sw *SnapWriter) F64(v float64) {
	sw.buf = binary.LittleEndian.AppendUint64(sw.buf, math.Float64bits(v))
}

// SumCounts bulk-encodes a decomposed-aggregate series as raw (sum,
// count) float64 pairs: the dense-raw series layout and the universe
// codec's mappable arena block.
func (sw *SnapWriter) SumCounts(s []SumCount) {
	sw.buf = slices.Grow(sw.buf, 16*len(s))
	for i := range s {
		sw.buf = binary.LittleEndian.AppendUint64(sw.buf, math.Float64bits(s[i].Sum))
		sw.buf = binary.LittleEndian.AppendUint64(sw.buf, math.Float64bits(s[i].Count))
	}
}

// Uvarint emits v in LEB128 variable-width encoding (1 byte for values
// < 128), the workhorse of the codec's length and id fields.
func (sw *SnapWriter) Uvarint(v uint64) { sw.buf = binary.AppendUvarint(sw.buf, v) }

// Varint emits v zigzag-encoded so small magnitudes of either sign stay
// short; the codec uses it for deltas and integral measure values.
func (sw *SnapWriter) Varint(v int64) { sw.buf = binary.AppendVarint(sw.buf, v) }

// VStr emits a string with a uvarint length prefix.
func (sw *SnapWriter) VStr(s string) {
	sw.Uvarint(uint64(len(s)))
	sw.buf = append(sw.buf, s...)
}

// integralF64 reports whether v survives a round trip through int64
// exactly: an integer of magnitude ≤ 2^53 that is not negative zero (the
// int64 round trip would silently flip -0.0 to +0.0, breaking the codec's
// bit-identity contract).
func integralF64(v float64) bool {
	return v == math.Trunc(v) && v >= -(1<<53) && v <= 1<<53 &&
		!(v == 0 && math.Signbit(v))
}

// uvarintLen returns the encoded size of v in bytes.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// zigzag mirrors the transform binary.PutVarint applies.
func zigzag(v int64) uint64 { return uint64(v)<<1 ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// pow10tab backs the decimal float codec; decimalEscape in the exponent
// nibble marks a value that did not verify and is stored as raw bits.
var pow10tab = [15]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14}

const decimalEscape = 15

// decimalF64 finds the smallest e with v == float64(m) / 10^e reproduced
// BIT-exactly (verified by re-dividing, so double rounding can never slip
// through). Data ingested from decimal text — CSV measures and their
// sums — almost always verifies with a short mantissa, turning an 8-byte
// float into a 2–4 byte varint.
func decimalF64(v float64) (m int64, e int, ok bool) {
	for e = 0; e < len(pow10tab); e++ {
		s := v * pow10tab[e]
		if s != math.Trunc(s) || s < -(1<<53) || s > 1<<53 {
			continue
		}
		m = int64(s)
		if math.Float64bits(float64(m)/pow10tab[e]) == math.Float64bits(v) {
			return m, e, true
		}
	}
	return 0, 0, false
}

// decimalF64Len returns DecimalF64's encoded size for v in bytes.
func decimalF64Len(v float64) int {
	if m, _, ok := decimalF64(v); ok {
		return uvarintLen(zigzag(m)<<4 | 1)
	}
	return 9
}

// DecimalF64 emits one float in the decimal-mantissa encoding: a single
// uvarint packing zigzag(mantissa)<<4 | exponent, or an escape nibble
// followed by the raw IEEE bits when no exact decimal form exists.
func (sw *SnapWriter) DecimalF64(v float64) {
	if m, e, ok := decimalF64(v); ok {
		sw.Uvarint(zigzag(m)<<4 | uint64(e))
		return
	}
	sw.Uvarint(decimalEscape)
	sw.F64(v)
}

// DecimalF64 decodes the counterpart of SnapWriter.DecimalF64.
func (sr *SnapReader) DecimalF64() float64 {
	u := sr.Uvarint()
	e := u & 15
	if e == decimalEscape {
		return sr.F64()
	}
	return float64(unzigzag(u>>4)) / pow10tab[e]
}

// F64Column encodes a float64 column under the cheapest of three layouts,
// all bit-exact: flag 1 zigzag varints when every value is integral, flag
// 2 decimal-mantissa varints (short CSV-style decimals, raw escapes for
// the rest), or flag 0 raw IEEE bits.
func (sw *SnapWriter) F64Column(vals []float64) {
	integral := true
	costInt, costDec := 0, 0
	for _, v := range vals {
		if integral && integralF64(v) {
			costInt += uvarintLen(zigzag(int64(v)))
		} else {
			integral = false
		}
		costDec += decimalF64Len(v)
	}
	costRaw := 8 * len(vals)
	switch {
	case integral && costInt <= costDec && costInt < costRaw:
		sw.U8(1)
		for _, v := range vals {
			sw.Varint(int64(v))
		}
	case costDec < costRaw:
		sw.U8(2)
		for _, v := range vals {
			sw.DecimalF64(v)
		}
	default:
		sw.U8(0)
		for _, v := range vals {
			sw.F64(v)
		}
	}
}

// Series layout tags for SumCountsV2: dense raw, which encodes any series,
// plus the three compact layouts the bundled and generated datasets pick.
// "Integral" requires every stored value to pass integralF64; "sparse"
// layouts store only entries whose Sum and Count are both exactly +0x0
// bits (so -0.0 never masquerades as absent), and need integral,
// non-negative counts.
const (
	scDenseRaw        = 0 // T × (f64 sum, f64 count)
	scDenseIntegral   = 1 // T × (varint sum, uvarint count)
	scSparseRawSum    = 2 // nnz × (uvarint gap, f64 sum, uvarint count)
	scSparseDecimal   = 3 // nnz × (uvarint gap, decimal sum, uvarint count)
	scSparseOverheadB = 5 // uvarint nnz budgeted generously in cost math
)

// scZero reports a truly absent entry: both fields bit-equal to +0.0.
func scZero(s SumCount) bool {
	return math.Float64bits(s.Sum) == 0 && math.Float64bits(s.Count) == 0
}

// SumCountsV2 encodes a decomposed-aggregate series in the layout that
// costs the fewest bytes while staying bit-exact: candidate slices are
// mostly zero (sparse layouts skip the zeros) and counts — often sums too
// — are small integers (varints shrink them). A one-byte layout tag keeps
// the decoder branch-free per series.
func (sw *SnapWriter) SumCountsV2(s []SumCount) {
	nnz := 0
	cntIntegral, denseIntegral := true, true
	var costDenseInt, costSparseRawSum, costSparseDec int
	for i := range s {
		if scZero(s[i]) {
			costDenseInt += 2 // varint 0 + uvarint 0
			continue
		}
		nnz++
		sumInt := integralF64(s[i].Sum)
		countInt := integralF64(s[i].Count) && s[i].Count >= 0
		if !sumInt || !countInt {
			denseIntegral = false
		}
		if !countInt {
			cntIntegral = false
		}
		if sumInt {
			costDenseInt += uvarintLen(zigzag(int64(s[i].Sum)))
		}
		costSparseDec += decimalF64Len(s[i].Sum)
		if countInt {
			cl := uvarintLen(uint64(s[i].Count))
			costDenseInt += cl
			costSparseRawSum += cl
			costSparseDec += cl
		}
	}
	// Gap bytes: almost always 1 each; budget 2 to stay conservative.
	costSparseRawSum += scSparseOverheadB + 2*nnz + 8*nnz
	costSparseDec += scSparseOverheadB + 2*nnz

	layout, best := scDenseRaw, 16*len(s)
	if denseIntegral && costDenseInt < best {
		layout, best = scDenseIntegral, costDenseInt
	}
	if cntIntegral && costSparseRawSum < best {
		layout, best = scSparseRawSum, costSparseRawSum
	}
	if cntIntegral && costSparseDec < best {
		layout = scSparseDecimal
	}

	sw.U8(uint8(layout))
	switch layout {
	case scDenseRaw:
		sw.SumCounts(s)
	case scDenseIntegral:
		for i := range s {
			sw.Varint(int64(s[i].Sum))
			sw.Uvarint(uint64(s[i].Count))
		}
	default:
		sw.Uvarint(uint64(nnz))
		prev := -1
		for i := range s {
			if scZero(s[i]) {
				continue
			}
			sw.Uvarint(uint64(i - prev - 1))
			prev = i
			if layout == scSparseRawSum {
				sw.F64(s[i].Sum)
			} else {
				sw.DecimalF64(s[i].Sum)
			}
			sw.Uvarint(uint64(s[i].Count))
		}
	}
}

// SnapReader is the decoding counterpart of SnapWriter: little-endian
// primitives read straight off an in-memory payload (a heap copy or a
// read-only mapping) with a sticky error, so decoders read
// unconditionally and check Err once per structural step.
type SnapReader struct {
	buf []byte
	pos int
	err error
}

// NewSnapReaderBytes returns a snapshot reader decoding directly from an
// in-memory payload.
func NewSnapReaderBytes(b []byte) *SnapReader { return &SnapReader{buf: b} }

func (sr *SnapReader) truncated() {
	sr.err = fmt.Errorf("relation: snapshot truncated: %w", io.ErrUnexpectedEOF)
}

func (sr *SnapReader) bytes(n int) []byte {
	if sr.err != nil {
		return nil
	}
	if n < 0 || len(sr.buf)-sr.pos < n {
		sr.truncated()
		return nil
	}
	b := sr.buf[sr.pos : sr.pos+n]
	sr.pos += n
	return b
}

// Remaining returns the number of payload bytes not yet consumed.
func (sr *SnapReader) Remaining() int { return len(sr.buf) - sr.pos }

// Section reads a section header written by SnapWriter.Section and fails
// the decode unless both the magic and the version match: a section
// written in any other format version is rejected, never mis-decoded.
func (sr *SnapReader) Section(magic string, version uint8) {
	if b := sr.bytes(len(magic)); sr.err == nil && string(b) != magic {
		sr.err = fmt.Errorf("snapshot: bad %s section magic %q", magic, b)
	}
	if v := sr.U8(); sr.err == nil && v != version {
		sr.err = fmt.Errorf("snapshot: %s section version %d unsupported (want %d)", magic, v, version)
	}
}

// U8 and F64 are the fixed-width little-endian decoders shared by the
// snapshot codecs.
func (sr *SnapReader) U8() uint8 {
	b := sr.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (sr *SnapReader) F64() float64 {
	b := sr.bytes(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// SumCountsInto bulk-decodes len(dst) (sum, count) pairs into dst, the
// counterpart of SnapWriter.SumCounts.
//
//tsexplain:hotpath
func (sr *SnapReader) SumCountsInto(dst []SumCount) {
	if sr.err != nil {
		return
	}
	if (len(sr.buf)-sr.pos)/16 < len(dst) {
		sr.truncated()
		return
	}
	b := sr.buf[sr.pos:]
	for i := range dst {
		dst[i].Sum = math.Float64frombits(binary.LittleEndian.Uint64(b[i*16:]))
		dst[i].Count = math.Float64frombits(binary.LittleEndian.Uint64(b[i*16+8:]))
	}
	sr.pos += len(dst) * 16
}

// Uvarint decodes a LEB128 unsigned value.
func (sr *SnapReader) Uvarint() uint64 {
	if sr.err != nil {
		return 0
	}
	v, n := binary.Uvarint(sr.buf[sr.pos:])
	if n <= 0 {
		sr.err = fmt.Errorf("relation: snapshot: bad varint")
		return 0
	}
	sr.pos += n
	return v
}

// Varint decodes a zigzag varint.
func (sr *SnapReader) Varint() int64 {
	if sr.err != nil {
		return 0
	}
	v, n := binary.Varint(sr.buf[sr.pos:])
	if n <= 0 {
		sr.err = fmt.Errorf("relation: snapshot: bad varint")
		return 0
	}
	sr.pos += n
	return v
}

// VLen decodes an element count (string bytes, rows, labels, columns,
// dictionary values, candidates). Every element takes at least one byte,
// so a count larger than the bytes left can only come from corruption: it
// fails the decode before anything is allocated for it.
func (sr *SnapReader) VLen(what string) int {
	n := sr.Uvarint()
	if left := sr.Remaining(); sr.err == nil && n > uint64(left) {
		sr.err = fmt.Errorf("relation: snapshot %s count %d exceeds the %d bytes left", what, n, left)
		return 0
	}
	return int(n)
}

// VStr decodes a uvarint-length-prefixed string.
func (sr *SnapReader) VStr() string {
	return string(sr.bytes(sr.VLen("string")))
}

// F64ColumnInto decodes a column written by F64Column into dst.
//
//tsexplain:hotpath
func (sr *SnapReader) F64ColumnInto(dst []float64) {
	switch flag := sr.U8(); flag {
	case 1:
		for i := range dst {
			dst[i] = float64(sr.Varint())
		}
	case 2:
		for i := range dst {
			dst[i] = sr.DecimalF64()
		}
	case 0:
		for i := range dst {
			dst[i] = sr.F64()
		}
	default:
		if sr.err == nil {
			sr.err = fmt.Errorf("relation: snapshot: unknown float column flag %d", flag) //tsexplain:allowalloc cold error path; the decode aborts here
		}
	}
}

// SumCountsV2Into decodes a series written by SumCountsV2 into dst, which
// must already be sized to the series length (sparse layouts rely on it
// to bound indexes). dst is zeroed first so absent sparse entries decode
// to exact +0.0 pairs.
//
//tsexplain:hotpath
func (sr *SnapReader) SumCountsV2Into(dst []SumCount) {
	layout := sr.U8()
	if sr.err != nil {
		return
	}
	switch layout {
	case scDenseRaw:
		sr.SumCountsInto(dst)
		return
	case scDenseIntegral:
		for i := range dst {
			dst[i].Sum = float64(sr.Varint())
			dst[i].Count = float64(sr.Uvarint())
		}
		return
	case scSparseRawSum, scSparseDecimal:
	default:
		sr.err = fmt.Errorf("relation: snapshot: unknown series layout %d", layout) //tsexplain:allowalloc cold error path; the decode aborts here
		return
	}
	clear(dst)
	nnz := sr.VLen("series entries")
	if sr.err != nil {
		return
	}
	if nnz > len(dst) {
		sr.err = fmt.Errorf("relation: snapshot: %d sparse entries exceed series length %d", nnz, len(dst)) //tsexplain:allowalloc cold error path; the decode aborts here
		return
	}
	idx := -1
	for k := 0; k < nnz; k++ {
		gap := sr.Uvarint()
		if sr.err != nil {
			return
		}
		if gap > uint64(len(dst)) {
			sr.err = fmt.Errorf("relation: snapshot: sparse gap %d exceeds series length %d", gap, len(dst)) //tsexplain:allowalloc cold error path; the decode aborts here
			return
		}
		idx += int(gap) + 1
		if idx < 0 || idx >= len(dst) {
			sr.err = fmt.Errorf("relation: snapshot: sparse entry index %d out of series of %d", idx, len(dst)) //tsexplain:allowalloc cold error path; the decode aborts here
			return
		}
		if layout == scSparseRawSum {
			dst[idx].Sum = sr.F64()
		} else {
			dst[idx].Sum = sr.DecimalF64()
		}
		dst[idx].Count = float64(sr.Uvarint())
	}
}

// Err returns the first decoding error, if any.
func (sr *SnapReader) Err() error { return sr.err }

// EncodeSnapshot appends the relation's snapshot section to sw (the
// catalog writes the relation and universe sections into one checksummed
// file): time labels and per-row time indexes, every dimension's
// dictionary and id column, every measure column, and the
// hierarchy/derived-column trailer. The encoding captures the dictionary
// id assignment exactly, so a decoded relation is bit-identical to the
// original — including candidate IDs derived from dictionary order by
// the explain layer.
func (r *Relation) EncodeSnapshot(sw *SnapWriter) {
	sw.Section(relSnapMagic, relSnapVersion)
	sw.VStr(r.name)
	sw.VStr(r.timeName)
	sw.Uvarint(uint64(r.numRows))
	sw.Uvarint(uint64(len(r.timeLabels)))
	for _, l := range r.timeLabels {
		sw.VStr(l)
	}
	// Rows arrive in (nearly) time order, so deltas between consecutive
	// time indexes are tiny — zigzag varints make the column ~1 byte/row.
	prev := int64(0)
	for _, t := range r.timeIdx {
		sw.Varint(int64(t) - prev)
		prev = int64(t)
	}
	sw.Uvarint(uint64(len(r.dims)))
	for _, d := range r.dims {
		sw.VStr(d.name)
		sw.Uvarint(uint64(len(d.dict)))
		for _, v := range d.dict {
			sw.VStr(v)
		}
		// Dictionary ids are bounded by the cardinality, so uvarints cut
		// the dominant id columns to 1–2 bytes per row.
		for _, id := range d.ids {
			sw.Uvarint(uint64(id))
		}
	}
	sw.Uvarint(uint64(len(r.measures)))
	for _, m := range r.measures {
		sw.VStr(m.name)
		sw.F64Column(m.vals)
	}
	r.encodeMeta(sw)
}

// encodeMeta writes the section trailer: declared hierarchies (name plus
// level dimension indexes — the parent maps are rebuilt and revalidated
// from the rows on decode) and derived-column records, including frozen
// range-bin edges so restored relations bin appended rows bit-identically.
func (r *Relation) encodeMeta(sw *SnapWriter) {
	sw.Uvarint(uint64(len(r.hiers)))
	for _, h := range r.hiers {
		sw.VStr(h.name)
		sw.Uvarint(uint64(len(h.dims)))
		for _, d := range h.dims {
			sw.Uvarint(uint64(d))
		}
	}
	sw.Uvarint(uint64(len(r.derived)))
	for i := range r.derived {
		dc := &r.derived[i]
		sw.Uvarint(uint64(dc.dim))
		sw.U8(dc.kind)
		sw.Uvarint(uint64(dc.source))
		sw.Uvarint(uint64(dc.level))
		sw.Uvarint(uint64(dc.nparts))
		sw.VStr(dc.delim)
		sw.Uvarint(uint64(len(dc.edges)))
		for _, e := range dc.edges {
			sw.F64(e)
		}
	}
}

// DecodeSnapshot decodes one relation section from sr, the counterpart of
// EncodeSnapshot. Structural invariants — id ranges, column lengths,
// duplicate names — are re-validated during decoding, so a corrupted
// snapshot fails loudly rather than producing a relation that violates
// the invariants the engine relies on. (Bit-flips inside string or float
// payloads are the catalog checksum's job; this layer guarantees
// structural soundness.)
func DecodeSnapshot(sr *SnapReader) (*Relation, error) {
	r := decodeSnapshot(sr)
	if sr.err != nil {
		return nil, sr.err
	}
	return r, nil
}

func decodeSnapshot(sr *SnapReader) *Relation {
	fail := func(format string, args ...any) *Relation {
		if sr.err == nil {
			sr.err = fmt.Errorf("relation: snapshot: "+format, args...)
		}
		return nil
	}
	sr.Section(relSnapMagic, relSnapVersion)
	r := &Relation{
		name:     sr.VStr(),
		timeName: sr.VStr(),
	}
	r.numRows = sr.VLen("row count")
	nLabels := sr.VLen("time labels")
	if sr.err != nil {
		return nil
	}
	r.timeLabels = make([]string, nLabels)
	r.timePos = make(map[string]int32, nLabels)
	for i := range r.timeLabels {
		l := sr.VStr()
		if _, dup := r.timePos[l]; dup && sr.err == nil {
			return fail("duplicate time label %q", l)
		}
		r.timeLabels[i] = l
		r.timePos[l] = int32(i)
	}
	r.timeIdx = make([]int32, r.numRows)
	prev := int64(0)
	for i := range r.timeIdx {
		t := prev + sr.Varint()
		prev = t
		if (t < 0 || t >= int64(nLabels)) && sr.err == nil {
			return fail("row %d time index %d out of range (%d labels)", i, t, nLabels)
		}
		r.timeIdx[i] = int32(t)
	}
	nDims := sr.VLen("dimension count")
	if sr.err != nil {
		return nil
	}
	r.dimByName = make(map[string]int, nDims)
	for di := 0; di < nDims; di++ {
		col := &DimColumn{name: sr.VStr()}
		if _, dup := r.dimByName[col.name]; dup && sr.err == nil {
			return fail("duplicate dimension %q", col.name)
		}
		nDict := sr.VLen("dictionary")
		if sr.err != nil {
			return nil
		}
		col.dict = make([]string, nDict)
		col.index = make(map[string]uint32, nDict)
		for i := range col.dict {
			v := sr.VStr()
			if _, dup := col.index[v]; dup && sr.err == nil {
				return fail("dimension %q: duplicate dictionary value %q", col.name, v)
			}
			col.dict[i] = v
			col.index[v] = uint32(i)
		}
		col.ids = make([]uint32, r.numRows)
		for i := range col.ids {
			id := sr.Uvarint()
			if id >= uint64(nDict) && sr.err == nil {
				return fail("dimension %q: row %d id %d out of range (%d values)", col.name, i, id, nDict)
			}
			col.ids[i] = uint32(id)
		}
		r.dimByName[col.name] = di
		r.dims = append(r.dims, col)
	}
	nMeas := sr.VLen("measure count")
	if sr.err != nil {
		return nil
	}
	r.measureByName = make(map[string]int, nMeas)
	for mi := 0; mi < nMeas; mi++ {
		col := &MeasureColumn{name: sr.VStr()}
		if _, dup := r.measureByName[col.name]; dup && sr.err == nil {
			return fail("duplicate measure %q", col.name)
		}
		col.vals = make([]float64, r.numRows)
		sr.F64ColumnInto(col.vals)
		r.measureByName[col.name] = mi
		r.measures = append(r.measures, col)
	}
	if sr.err != nil {
		return nil
	}
	if msg := r.decodeMeta(sr); msg != "" {
		return fail("%s", msg)
	}
	return r
}

// decodeMeta reads the section trailer and re-derives the hierarchy
// parent maps from the decoded rows (re-running the single-parent
// validation, so a corrupted file cannot smuggle in an inconsistent
// taxonomy). It returns a non-empty message on structural failure.
func (r *Relation) decodeMeta(sr *SnapReader) string {
	nHier := sr.VLen("hierarchy count")
	if sr.err != nil {
		return ""
	}
	names := make(map[string]bool, nHier)
	for hi := 0; hi < nHier; hi++ {
		name := sr.VStr()
		nLevels := sr.VLen("hierarchy levels")
		if sr.err != nil {
			return ""
		}
		if nLevels < 2 {
			return fmt.Sprintf("hierarchy %q has %d level(s)", name, nLevels)
		}
		levels := make([]string, nLevels)
		for l := range levels {
			d := sr.Uvarint()
			if sr.err != nil {
				return ""
			}
			if d >= uint64(len(r.dims)) {
				return fmt.Sprintf("hierarchy %q level %d references dimension %d of %d", name, l, d, len(r.dims))
			}
			levels[l] = r.dims[d].name
		}
		if names[name] {
			return fmt.Sprintf("duplicate hierarchy %q", name)
		}
		names[name] = true
		if err := r.DeclareHierarchy(name, levels); err != nil {
			return err.Error()
		}
	}
	nDerived := sr.VLen("derived column count")
	if sr.err != nil {
		return ""
	}
	base := len(r.dims) - nDerived
	if base < 0 {
		return fmt.Sprintf("%d derived columns exceed %d dimensions", nDerived, len(r.dims))
	}
	for i := 0; i < nDerived; i++ {
		dc := derivedCol{
			dim:    int(sr.Uvarint()),
			kind:   sr.U8(),
			source: int(sr.Uvarint()),
			level:  int(sr.Uvarint()),
			nparts: int(sr.Uvarint()),
			delim:  sr.VStr(),
		}
		nEdges := sr.VLen("range bin edges")
		if sr.err != nil {
			return ""
		}
		if nEdges > 0 {
			dc.edges = make([]float64, nEdges)
			for e := range dc.edges {
				dc.edges[e] = sr.F64()
			}
		}
		if sr.err != nil {
			return ""
		}
		// Derived columns occupy the dimension tail in order; anything else
		// breaks the base-width append contract.
		if dc.dim != base+i {
			return fmt.Sprintf("derived column %d at dimension %d, want %d", i, dc.dim, base+i)
		}
		switch dc.kind {
		case derivedPathLevel:
			if dc.source < 0 || dc.source >= base || dc.level < 0 || dc.level >= dc.nparts || dc.delim == "" {
				return fmt.Sprintf("derived path column %d is inconsistent", i)
			}
		case derivedRangeBin:
			if dc.source < 0 || dc.source >= len(r.measures) {
				return fmt.Sprintf("derived range bin column %d references measure %d of %d", i, dc.source, len(r.measures))
			}
			for e := 1; e < len(dc.edges); e++ {
				if !(dc.edges[e] > dc.edges[e-1]) {
					return fmt.Sprintf("derived range bin column %d has non-increasing edges", i)
				}
			}
		default:
			return fmt.Sprintf("derived column %d has unknown kind %d", i, dc.kind)
		}
		r.derived = append(r.derived, dc)
	}
	return ""
}

// Clone returns a deep copy of the relation: mutations of the receiver
// (AppendRows) never reach the copy and vice versa. The serving layer
// clones the live streaming relation when publishing a fresh immutable
// view for pooled engines.
func (r *Relation) Clone() *Relation {
	out := &Relation{
		name:          r.name,
		numRows:       r.numRows,
		timeName:      r.timeName,
		timeIdx:       append([]int32(nil), r.timeIdx...),
		timeLabels:    append([]string(nil), r.timeLabels...),
		timePos:       make(map[string]int32, len(r.timeLabels)),
		dimByName:     make(map[string]int, len(r.dims)),
		measureByName: make(map[string]int, len(r.measures)),
	}
	for i, l := range out.timeLabels {
		out.timePos[l] = int32(i)
	}
	for i, d := range r.dims {
		col := &DimColumn{
			name:  d.name,
			ids:   append([]uint32(nil), d.ids...),
			dict:  append([]string(nil), d.dict...),
			index: make(map[string]uint32, len(d.dict)),
		}
		for id, v := range col.dict {
			col.index[v] = uint32(id)
		}
		out.dimByName[col.name] = i
		out.dims = append(out.dims, col)
	}
	for i, m := range r.measures {
		out.measureByName[m.name] = i
		out.measures = append(out.measures, &MeasureColumn{name: m.name, vals: append([]float64(nil), m.vals...)})
	}
	for _, h := range r.hiers {
		ch := &Hierarchy{
			name:    h.name,
			dims:    append([]int(nil), h.dims...),
			parents: make([][]uint32, len(h.parents)),
		}
		for l := 1; l < len(h.parents); l++ {
			ch.parents[l] = append([]uint32(nil), h.parents[l]...)
		}
		out.hiers = append(out.hiers, ch)
	}
	for _, dc := range r.derived {
		dc.edges = append([]float64(nil), dc.edges...)
		out.derived = append(out.derived, dc)
	}
	return out
}
