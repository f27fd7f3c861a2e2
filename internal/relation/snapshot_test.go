package relation

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// encodeRel returns the relation's snapshot section.
func encodeRel(r *Relation) []byte {
	var sw SnapWriter
	r.EncodeSnapshot(&sw)
	return sw.Bytes()
}

// decodeRel decodes one relation section from b.
func decodeRel(b []byte) (*Relation, error) {
	return DecodeSnapshot(NewSnapReaderBytes(b))
}

// snapTestRelation builds a small relation with revised last-day rows,
// multi-value dictionaries, and two measures — enough structure to catch
// field-level codec mistakes.
func snapTestRelation(t *testing.T) *Relation {
	t.Helper()
	b := NewBuilder("snaptest", "date", []string{"state", "county"}, []string{"cases", "deaths"})
	states := []string{"NY", "CA", "TX"}
	counties := []string{"a", "b"}
	row := 0
	for d := 0; d < 12; d++ {
		for _, s := range states {
			for _, c := range counties {
				date := fmt.Sprintf("2020-01-%02d", d+1)
				if err := b.Append(date, []string{s, c}, []float64{float64(row % 17), float64(row % 5)}); err != nil {
					t.Fatal(err)
				}
				row++
			}
		}
	}
	r, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// relationsEqual compares two relations field by field through the public
// accessors.
func relationsEqual(t *testing.T, a, b *Relation) {
	t.Helper()
	if a.Name() != b.Name() || a.TimeName() != b.TimeName() || a.NumRows() != b.NumRows() {
		t.Fatalf("header mismatch: (%q,%q,%d) vs (%q,%q,%d)",
			a.Name(), a.TimeName(), a.NumRows(), b.Name(), b.TimeName(), b.NumRows())
	}
	if !reflect.DeepEqual(a.TimeLabels(), b.TimeLabels()) {
		t.Fatalf("time labels differ")
	}
	for row := 0; row < a.NumRows(); row++ {
		if a.TimeIndex(row) != b.TimeIndex(row) {
			t.Fatalf("row %d time index %d vs %d", row, a.TimeIndex(row), b.TimeIndex(row))
		}
	}
	if !reflect.DeepEqual(a.DimNames(), b.DimNames()) {
		t.Fatalf("dim names differ: %v vs %v", a.DimNames(), b.DimNames())
	}
	for d := 0; d < a.NumDims(); d++ {
		if !reflect.DeepEqual(Dictionary(a.Dim(d)), Dictionary(b.Dim(d))) {
			t.Fatalf("dim %d dictionaries differ (order matters: ids must survive the roundtrip)", d)
		}
		for row := 0; row < a.NumRows(); row++ {
			if DimID(a, d, row) != DimID(b, d, row) {
				t.Fatalf("dim %d row %d id %d vs %d", d, row, DimID(a, d, row), DimID(b, d, row))
			}
		}
	}
	if !reflect.DeepEqual(a.MeasureNames(), b.MeasureNames()) {
		t.Fatalf("measure names differ")
	}
	for m := 0; m < a.NumMeasures(); m++ {
		for row := 0; row < a.NumRows(); row++ {
			if a.MeasureValue(m, row) != b.MeasureValue(m, row) {
				t.Fatalf("measure %d row %d: %v vs %v", m, row, a.MeasureValue(m, row), b.MeasureValue(m, row))
			}
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	r := snapTestRelation(t)
	b := encodeRel(r)
	got, err := decodeRel(b)
	if err != nil {
		t.Fatal(err)
	}
	relationsEqual(t, r, got)
	// The hierarchy/derived-column trailer is always written: two zero
	// counts for a relation without either.
	if tail := b[len(b)-2:]; tail[0] != 0 || tail[1] != 0 {
		t.Fatalf("plain relation trailer = %v, want two zero counts", tail)
	}

	// The decoded relation must be fully functional, not just equal:
	// append to it and aggregate.
	if err := got.AppendRows(
		[]string{"2020-01-13"},
		[][]string{{"FL", "c"}},
		[][]float64{{7, 1}},
	); err != nil {
		t.Fatalf("decoded relation rejects appends: %v", err)
	}
	if got.NumTimestamps() != r.NumTimestamps()+1 {
		t.Fatalf("append after decode: %d timestamps, want %d", got.NumTimestamps(), r.NumTimestamps()+1)
	}
}

func TestSnapshotRoundTripDeterministic(t *testing.T) {
	r := snapTestRelation(t)
	if !bytes.Equal(encodeRel(r), encodeRel(r)) {
		t.Fatal("snapshot encoding is not deterministic")
	}
}

func TestSnapshotTruncated(t *testing.T) {
	full := encodeRel(snapTestRelation(t))
	// Every strict prefix must fail with an error, never panic or succeed.
	for _, cut := range []int{0, 1, 3, 7, len(full) / 4, len(full) / 2, len(full) - 1} {
		if _, err := decodeRel(full[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d decoded without error", cut, len(full))
		}
	}
}

func TestSnapshotCorruptLengths(t *testing.T) {
	full := encodeRel(snapTestRelation(t))

	// Bad magic.
	bad := append([]byte(nil), full...)
	bad[0] = 'X'
	if _, err := decodeRel(bad); err == nil {
		t.Fatal("bad magic decoded without error")
	}
	// Any other version — the earlier layouts 1–3 included — is rejected
	// before a single field is read, never mis-decoded.
	for _, v := range []byte{1, 2, 3, 0xFF} {
		bad = append([]byte(nil), full...)
		bad[4] = v
		if _, err := decodeRel(bad); err == nil {
			t.Fatalf("version %d decoded without error", v)
		}
	}
	// Absurd string length right after the version byte: must fail, not
	// attempt the allocation.
	bad = append([]byte(nil), full[:5]...)
	bad = append(bad, 0xFF, 0xFF, 0xFF, 0xFF)
	if _, err := decodeRel(bad); err == nil {
		t.Fatal("absurd length decoded without error")
	}
}

// tinyCountSection is a relation section that ends in a time-label count
// of 2³¹−1 after empty names and zero rows: magic, version, three zero
// bytes, then the count as a five-byte uvarint.
func tinyCountSection() []byte {
	b := append([]byte(relSnapMagic), relSnapVersion, 0, 0, 0)
	return binary.AppendUvarint(b, 1<<31-1)
}

// TestSnapshotCountBeyondData pins the allocation guard: a count larger
// than the bytes left fails the decode with an error before anything is
// allocated for it. Without the guard this section asks for 32 GiB of
// labels and the process dies out of memory.
func TestSnapshotCountBeyondData(t *testing.T) {
	_, err := decodeRel(tinyCountSection())
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized label count: err = %v, want a count-exceeds-data error", err)
	}
}

func TestClone(t *testing.T) {
	r := snapTestRelation(t)
	c := r.Clone()
	relationsEqual(t, r, c)

	// Mutating the clone must not touch the original.
	if err := c.AppendRows(
		[]string{"2020-01-13"},
		[][]string{{"WA", "z"}},
		[][]float64{{1, 2}},
	); err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != 72 || r.NumTimestamps() != 12 {
		t.Fatalf("clone mutation leaked into original: %d rows, %d timestamps", r.NumRows(), r.NumTimestamps())
	}
	if c.Dim(0).Cardinality() != 4 || r.Dim(0).Cardinality() != 3 {
		t.Fatalf("dictionary sharing between clone and original: %d vs %d",
			c.Dim(0).Cardinality(), r.Dim(0).Cardinality())
	}
}

// bitsEqual compares SumCount slices bit for bit: NaN payloads, signed
// zeros, and subnormals must all survive the codec unchanged.
func bitsEqual(a, b []SumCount) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].Sum) != math.Float64bits(b[i].Sum) ||
			math.Float64bits(a[i].Count) != math.Float64bits(b[i].Count) {
			return false
		}
	}
	return true
}

// trickyFloats is the adversarial value set every float codec path must
// round-trip bit-exactly.
var trickyFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 6.5, 1e-3, 123.456,
	1e15, -1e15, float64(1<<53 - 1), float64(1 << 53), float64(1<<53) + 2,
	math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8dead_beef0001),
	1.0 / 3.0, math.Pi, 0.1, 0.07, 99.99, -42.25,
}

// encodeWith returns the bytes one write call appends to an empty writer.
func encodeWith(write func(*SnapWriter)) []byte {
	var sw SnapWriter
	write(&sw)
	return sw.Bytes()
}

func TestDecimalF64RoundTrip(t *testing.T) {
	for _, v := range trickyFloats {
		b := encodeWith(func(sw *SnapWriter) { sw.DecimalF64(v) })
		if n := decimalF64Len(v); n != len(b) {
			t.Errorf("decimalF64Len(%v) = %d, encoded %d bytes", v, n, len(b))
		}
		sr := NewSnapReaderBytes(b)
		got := sr.DecimalF64()
		if err := sr.Err(); err != nil {
			t.Fatalf("DecimalF64(%v): %v", v, err)
		}
		if math.Float64bits(got) != math.Float64bits(v) {
			t.Errorf("DecimalF64 round-trip %v -> %v (bits %x -> %x)",
				v, got, math.Float64bits(v), math.Float64bits(got))
		}
	}
}

func TestF64ColumnRoundTrip(t *testing.T) {
	cols := [][]float64{
		{},
		{1, 2, 3, 4, 5},                     // integral
		{0.5, 1.5, 2.25, 100.75},            // decimal
		trickyFloats,                        // raw escape territory
		{1e18, -1e18, 42},                   // large integral
		{7.5, 7, -0.125, math.NaN(), 1e300}, // mixed decimal/escape
	}
	for ci, col := range cols {
		sr := NewSnapReaderBytes(encodeWith(func(sw *SnapWriter) { sw.F64Column(col) }))
		got := make([]float64, len(col))
		sr.F64ColumnInto(got)
		if err := sr.Err(); err != nil {
			t.Fatalf("col %d: %v", ci, err)
		}
		for i := range col {
			if math.Float64bits(got[i]) != math.Float64bits(col[i]) {
				t.Fatalf("col %d entry %d: %v -> %v", ci, i, col[i], got[i])
			}
		}
	}
}

// sumCountCases enumerates series engineered to trigger every series
// layout plus the edge values that must force raw fallbacks.
func sumCountCases() map[string][]SumCount {
	dense := make([]SumCount, 64)
	for i := range dense {
		dense[i] = SumCount{Sum: float64(i * 3), Count: float64(i % 7)}
	}
	sparseInt := make([]SumCount, 128)
	sparseInt[3] = SumCount{Sum: 42, Count: 2}
	sparseInt[90] = SumCount{Sum: -17, Count: 1}
	sparseDec := make([]SumCount, 128)
	sparseDec[10] = SumCount{Sum: 6.5, Count: 1}
	sparseDec[11] = SumCount{Sum: 123.25, Count: 3}
	sparseRawSum := make([]SumCount, 128)
	sparseRawSum[0] = SumCount{Sum: math.Pi, Count: 4}
	sparseRawSum[127] = SumCount{Sum: 1.0 / 3.0, Count: 9}
	sparseRaw := make([]SumCount, 64)
	sparseRaw[5] = SumCount{Sum: math.Pi, Count: 0.5}
	sparseRaw[6] = SumCount{Sum: math.NaN(), Count: -3}
	tricky := make([]SumCount, len(trickyFloats))
	for i, v := range trickyFloats {
		tricky[i] = SumCount{Sum: v, Count: trickyFloats[len(trickyFloats)-1-i]}
	}
	return map[string][]SumCount{
		"empty":        {},
		"allZero":      make([]SumCount, 32),
		"denseInt":     dense,
		"sparseInt":    sparseInt,
		"sparseDec":    sparseDec,
		"sparseRawSum": sparseRawSum,
		"sparseRaw":    sparseRaw,
		"tricky":       tricky,
		"negZeroSum":   {{Sum: math.Copysign(0, -1), Count: 0}, {}, {Sum: 1, Count: 1}},
		"negZeroCount": {{Sum: 0, Count: math.Copysign(0, -1)}, {}, {Sum: 2, Count: 2}},
		"negCount":     {{Sum: 3, Count: -2}, {}},
		"hugeInt":      {{Sum: float64(1<<53 - 1), Count: float64(1<<53 - 1)}, {}},
	}
}

func TestSumCountsV2RoundTrip(t *testing.T) {
	for name, s := range sumCountCases() {
		sr := NewSnapReaderBytes(encodeWith(func(sw *SnapWriter) { sw.SumCountsV2(s) }))
		got := make([]SumCount, len(s))
		// Pre-poison dst: sparse decoding must overwrite every cell.
		for i := range got {
			got[i] = SumCount{Sum: math.NaN(), Count: math.NaN()}
		}
		sr.SumCountsV2Into(got)
		if err := sr.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bitsEqual(s, got) {
			t.Fatalf("%s: series not bit-identical after round-trip", name)
		}
	}
}

// TestSumCountsV2PicksCompactLayouts pins the cost model: sparse integer
// series (stored as sparse decimal, exponent 0) must not fall back to raw,
// and decimal-heavy sparse series must beat the 16-byte raw pairs.
func TestSumCountsV2PicksCompactLayouts(t *testing.T) {
	cases := sumCountCases()
	for _, name := range []string{"sparseInt", "sparseDec", "denseInt"} {
		s := cases[name]
		b := encodeWith(func(sw *SnapWriter) { sw.SumCountsV2(s) })
		if raw := 16 * len(s); len(b) >= raw/2 {
			t.Errorf("%s: %d bytes for %d raw (layout %d) — compact layout not chosen",
				name, len(b), raw, b[0])
		}
	}
}

func TestSumCountsV2RejectsCorrupt(t *testing.T) {
	s := sumCountCases()["sparseInt"]
	full := encodeWith(func(sw *SnapWriter) { sw.SumCountsV2(s) })

	// Unknown layout tag.
	bad := append([]byte(nil), full...)
	bad[0] = 0xEE
	sr := NewSnapReaderBytes(bad)
	sr.SumCountsV2Into(make([]SumCount, len(s)))
	if sr.Err() == nil {
		t.Fatal("unknown layout tag decoded without error")
	}

	// Entry count exceeding the series length.
	bad = append([]byte(nil), full[:1]...)
	bad = append(bad, 0xFF, 0xFF, 0x7F) // nnz ≫ len(dst)
	sr = NewSnapReaderBytes(bad)
	sr.SumCountsV2Into(make([]SumCount, len(s)))
	if sr.Err() == nil {
		t.Fatal("oversized sparse entry count decoded without error")
	}

	// Gap walking past the end of the series.
	bad = append([]byte(nil), full[0], 2, 0xFF, 0x7F)
	sr = NewSnapReaderBytes(bad)
	sr.SumCountsV2Into(make([]SumCount, len(s)))
	if sr.Err() == nil {
		t.Fatal("out-of-range sparse gap decoded without error")
	}

	// Every strict prefix errors, never panics.
	for cut := 0; cut < len(full); cut++ {
		sr := NewSnapReaderBytes(full[:cut])
		sr.SumCountsV2Into(make([]SumCount, len(s)))
		if sr.Err() == nil {
			t.Fatalf("truncation at %d of %d decoded without error", cut, len(full))
		}
	}
}

// FuzzSnapshotColumn throws arbitrary bytes at the varint/delta column
// decoders — the attack surface a corrupt snapshot reaches after the
// container checksum is forged. Decoders must error or succeed, never
// panic, hang, or over-allocate.
func FuzzSnapshotColumn(f *testing.F) {
	for _, s := range sumCountCases() {
		f.Add(encodeWith(func(sw *SnapWriter) { sw.SumCountsV2(s) }))
	}
	for _, col := range [][]float64{{1, 2, 3}, {0.5, 6.25}, trickyFloats} {
		f.Add(encodeWith(func(sw *SnapWriter) { sw.F64Column(col) }))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		NewSnapReaderBytes(data).SumCountsV2Into(make([]SumCount, 96))
		NewSnapReaderBytes(data).F64ColumnInto(make([]float64, 96))
		NewSnapReaderBytes(data).DecimalF64()
		sr := NewSnapReaderBytes(data)
		sr.Uvarint()
		sr.Varint()
	})
}
