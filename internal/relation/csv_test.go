package relation_test

// Tests of the one-pass CSV reader and the encode-on-append Builder. The
// reader is held to encoding/csv: readCSVReference is how ReadCSV read
// CSV before it parsed bytes itself, and the fuzz target requires both to
// fail or both to build the same relation. The Builder is held to the
// two-pass encoding it replaced: stage every row, then resolve the time
// order and build each dictionary in a second pass.

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/relation"
)

// readCSVReference reads CSV with encoding/csv at its defaults and feeds
// every record to Builder.Append.
func readCSVReference(src io.Reader, spec relation.CSVSpec) (*relation.Relation, error) {
	cr := csv.NewReader(src)
	header, err := cr.Read()
	if err != nil {
		return nil, err
	}
	colAt := make(map[string]int, len(header))
	for i, h := range header {
		colAt[h] = i
	}
	at := func(names []string) ([]int, error) {
		out := make([]int, len(names))
		for i, name := range names {
			c, ok := colAt[name]
			if !ok {
				return nil, fmt.Errorf("no column %q", name)
			}
			out[i] = c
		}
		return out, nil
	}
	timeAt, err := at([]string{spec.TimeCol})
	if err != nil {
		return nil, err
	}
	dimAt, err := at(spec.DimCols)
	if err != nil {
		return nil, err
	}
	measAt, err := at(spec.MeasCols)
	if err != nil {
		return nil, err
	}
	b := relation.NewBuilder(spec.Name, spec.TimeCol, spec.DimCols, spec.MeasCols)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return b.Finish()
		}
		if err != nil {
			return nil, err
		}
		dims := make([]string, len(dimAt))
		for i, c := range dimAt {
			dims[i] = rec[c]
		}
		meas := make([]float64, len(measAt))
		for i, c := range measAt {
			if meas[i], err = strconv.ParseFloat(rec[c], 64); err != nil {
				return nil, err
			}
		}
		if err := b.Append(rec[timeAt[0]], dims, meas); err != nil {
			return nil, err
		}
	}
}

// relView is everything a relation holds, measures as bits, in a form
// reflect.DeepEqual compares.
type relView struct {
	Name, TimeName string
	Labels         []string
	TimeIdx        []int
	Dims           []dimView
	Measures       []measureView
}

type dimView struct {
	Name string
	Dict []string
	IDs  []uint32
}

type measureView struct {
	Name string
	Bits []uint64
}

func viewOf(r *relation.Relation) relView {
	v := relView{Name: r.Name(), TimeName: r.TimeName(), Labels: r.TimeLabels()}
	for row := 0; row < r.NumRows(); row++ {
		v.TimeIdx = append(v.TimeIdx, r.TimeIndex(row))
	}
	for d := 0; d < r.NumDims(); d++ {
		dv := dimView{Name: r.Dim(d).Name(), Dict: relation.Dictionary(r.Dim(d))}
		for row := 0; row < r.NumRows(); row++ {
			dv.IDs = append(dv.IDs, relation.DimID(r, d, row))
		}
		v.Dims = append(v.Dims, dv)
	}
	for m := 0; m < r.NumMeasures(); m++ {
		mv := measureView{Name: r.Measure(m).Name()}
		for row := 0; row < r.NumRows(); row++ {
			mv.Bits = append(mv.Bits, math.Float64bits(r.MeasureValue(m, row)))
		}
		v.Measures = append(v.Measures, mv)
	}
	return v
}

// diffViews names the first part in which got differs from want, or
// returns "".
func diffViews(got, want relView) string {
	switch {
	case got.Name != want.Name || got.TimeName != want.TimeName:
		return fmt.Sprintf("names %q/%q, want %q/%q", got.Name, got.TimeName, want.Name, want.TimeName)
	case !reflect.DeepEqual(got.Labels, want.Labels):
		return fmt.Sprintf("time labels %q, want %q", got.Labels, want.Labels)
	case !reflect.DeepEqual(got.TimeIdx, want.TimeIdx):
		return "per-row time positions differ"
	case len(got.Dims) != len(want.Dims) || len(got.Measures) != len(want.Measures):
		return fmt.Sprintf("%d dimensions and %d measures, want %d and %d",
			len(got.Dims), len(got.Measures), len(want.Dims), len(want.Measures))
	}
	for d := range want.Dims {
		if !reflect.DeepEqual(got.Dims[d], want.Dims[d]) {
			return fmt.Sprintf("dimension %q: dictionary %q, want %q (or its ids differ)",
				want.Dims[d].Name, got.Dims[d].Dict, want.Dims[d].Dict)
		}
	}
	for m := range want.Measures {
		if !reflect.DeepEqual(got.Measures[m], want.Measures[m]) {
			return fmt.Sprintf("measure %q differs", want.Measures[m].Name)
		}
	}
	return ""
}

var fuzzSpec = relation.CSVSpec{Name: "f", TimeCol: "t", DimCols: []string{"a", "b"}, MeasCols: []string{"m"}}

// csvSeeds covers the dialect ReadCSV documents, accepted and rejected.
var csvSeeds = []string{
	"t,a,b,m\n2021-01-02,x,y,1\n2021-01-01,x,z,2.5\n",
	"t,a,b,m\n1,\"x,y\",z,1\n",                                 // quoted comma
	"t,a,b,m\n1,\"line\nbreak\",z,1\n2,w,\"two\r\nlines\",3\n", // quoted newlines
	"t,a,b,m\n1,\"say \"\"hi\"\"\",\"\"\"\",1\n",               // "" escapes
	"t,a,b,m\r\n1,x,y,1\r\n2,x,\"y\",2\r\n",                    // CRLF
	"t,a,b,m\n1,x,y,1\r",                                       // lone \r before EOF
	"t,a,b,m\n1,x,y,1\n\r",                                     // lone \r line before EOF
	"t,a,b,m\n1,x,\"y\r\",1\n2,x\ry,z,2\n",                     // \r inside fields
	"\n\nt,a,b,m\n\n1,x,y,1\n\r\n\n2,x,y,2\n\n",                // blank lines
	"t,a,b,m\n1,x\"y,z,1\n",                                    // bare quote
	"t,a,b,m\n1,\"x,y,1\n",                                     // unterminated quote
	"t,a,b,m\n1,\"x\ny,1\r",                                    // unterminated over lines
	"t,a,b,m\n1,\"x\"y,z,1\n",                                  // text after a closing quote
	"t,a,b,m\n1,\"x\" ,z,1\n",                                  // space after a closing quote
	"t,a,b,m\n1, \"x\",z,1\n",                                  // quote after a space
	"t,a,b,m\n1,x,y\n",                                         // short record
	"t,a,b,m\n1,x,y,1,extra\n",                                 // long record
	"t,a,b,m\n",                                                // header only
	"t,a,b,m",                                                  // header only, no newline
	"t,a,b,m\n1,x,y,1\n2,x,y,2",                                // no trailing newline
	"t,a,b,m\n1,x,y,\"1\"",                                     // quoted field at EOF
	"m,b,ignored,\"a\",t\n1.5e3,y,,x,2021\n-0,y,q,x,2020\nNaN,\"\",q,,2020\n", // reordered, ignored, empty
	"t,a,b,m\n1,x,y,notanumber\n", // bad measure
	"t,a,m\n1,x,1\n",              // missing column
	"",                            // empty input
	"t,a,b,m\n1," + strings.Repeat("x", 70000) + ",y,1\n",       // line longer than the read buffer
	"t,a,b,m\n1,\"" + strings.Repeat("x\n", 40000) + "\",y,1\n", // quoted field over many lines
}

// FuzzReadCSV holds ReadCSV to encoding/csv: both fail, or both return
// the same relation, down to the measure bits.
func FuzzReadCSV(f *testing.F) {
	for _, s := range csvSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := readCSVReference(bytes.NewReader(data), fuzzSpec)
		got, err := relation.ReadCSV(bytes.NewReader(data), fuzzSpec)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("ReadCSV error %v, encoding/csv reference error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if d := diffViews(viewOf(got), viewOf(want)); d != "" {
			t.Fatalf("ReadCSV differs from the encoding/csv reference: %s", d)
		}
	})
}

// failingReader yields data, then err in place of io.EOF.
type failingReader struct {
	data []byte
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

type sourceError struct{ at int }

func (e *sourceError) Error() string { return fmt.Sprintf("source failed after %d bytes", e.at) }

// TestReadCSVKeepsSourceError: wherever the source fails, in the header,
// inside a record or inside a quoted field, ReadCSV's error wraps the
// source's, so callers can tell a broken upload (an over-limit body, say)
// from bad CSV.
func TestReadCSVKeepsSourceError(t *testing.T) {
	data := "t,a,b,m\n1,x,y,1\n2,\"x\ny\",z,2\n3,x,y,3\n"
	for cut := 0; cut < len(data); cut++ {
		_, err := relation.ReadCSV(&failingReader{data: []byte(data[:cut]), err: &sourceError{at: cut}}, fuzzSpec)
		var se *sourceError
		if !errors.As(err, &se) || se.at != cut {
			t.Fatalf("source failing after %d bytes: error %v does not wrap it", cut, err)
		}
	}
}

// appendGrowths counts the allocations of appending n elements of type T
// one by one to an empty slice.
func appendGrowths[T any](n int) int {
	var s []T
	grows := 0
	for i := 0; i < n; i++ {
		if len(s) == cap(s) {
			grows++
		}
		s = append(s, *new(T))
	}
	return grows
}

// TestReadCSVAllocsGrowWithDistinctValues: twice the rows of the same
// values cost no allocations beyond the longer column slices' growth; a
// lookup of a value the dictionary holds allocates nothing, quoted field
// or not.
func TestReadCSVAllocsGrowWithDistinctValues(t *testing.T) {
	block := "2021-01-01,x,p,1.5\n2021-01-01,y,q,2\n2021-01-02,x,q,-3\n2021-01-02,\"y,z\",p,4e2\n"
	allocs := func(reps int) float64 {
		data := []byte("t,a,b,m\n" + strings.Repeat(block, reps))
		return testing.AllocsPerRun(10, func() {
			if _, err := relation.ReadCSV(bytes.NewReader(data), fuzzSpec); err != nil {
				t.Fatal(err)
			}
		})
	}
	const reps, rows = 256, 4 * 256
	growth := appendGrowths[int32](2*rows) - appendGrowths[int32](rows) + // time positions
		2*(appendGrowths[uint32](2*rows)-appendGrowths[uint32](rows)) + // dimension ids
		appendGrowths[float64](2*rows) - appendGrowths[float64](rows) // measure
	small, large := allocs(reps), allocs(2*reps)
	if large-small > float64(growth) {
		t.Fatalf("ReadCSV allocates per row: %v allocs for %d rows, %v for %d; slice growth explains %d",
			small, rows, large, 2*rows, growth)
	}
}

// TestWriteCSVReadCSVRoundTripDatasets: every built-in dataset survives
// the catalog's CSV round trip bit for bit, in the columns the CSV
// stores (derived columns are re-derived on load, not stored).
func TestWriteCSVReadCSVRoundTripDatasets(t *testing.T) {
	ds := []*datasets.Dataset{datasets.Covid(), datasets.SP500(), datasets.Stream(datasets.StreamDays), datasets.Taxonomy()}
	if !testing.Short() {
		ds = append(ds, datasets.Liquor())
	}
	for _, d := range ds {
		r := d.Rel
		var buf bytes.Buffer
		if err := relation.WriteCSV(&buf, r); err != nil {
			t.Fatal(err)
		}
		back, err := relation.ReadCSV(&buf, relation.CSVSpec{
			Name: r.Name(), TimeCol: r.TimeName(), DimCols: r.DimNames()[:r.NumBaseDims()], MeasCols: r.MeasureNames(),
		})
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		want := viewOf(r)
		want.Dims = want.Dims[:r.NumBaseDims()]
		if diff := diffViews(viewOf(back), want); diff != "" {
			t.Errorf("%s: round trip differs: %s", d.Name, diff)
		}
	}
}

type builderRow struct {
	time string
	dims []string
	meas []float64
}

// twoPassView is the relation the Builder built before it encoded on
// Append: rows staged, then labels resolved (sorted, or by an explicit
// order that must hold each label once and every row's label) and
// dictionaries built in first-appearance order.
func twoPassView(rows []builderRow, dimNames, measNames, order []string) (relView, error) {
	v := relView{Name: "p", TimeName: "t", Labels: []string{}}
	pos := make(map[string]int)
	if len(order) > 0 {
		for i, l := range order {
			if _, dup := pos[l]; dup {
				return relView{}, fmt.Errorf("duplicate time label %q", l)
			}
			pos[l] = i
		}
		v.Labels = append(v.Labels, order...)
	} else {
		for _, r := range rows {
			if _, seen := pos[r.time]; !seen {
				pos[r.time] = 0
				v.Labels = append(v.Labels, r.time)
			}
		}
		sort.Strings(v.Labels)
		for i, l := range v.Labels {
			pos[l] = i
		}
	}
	for _, r := range rows {
		p, ok := pos[r.time]
		if !ok {
			return relView{}, fmt.Errorf("time value %q not in the order", r.time)
		}
		v.TimeIdx = append(v.TimeIdx, p)
	}
	for d, name := range dimNames {
		dv := dimView{Name: name, Dict: []string{}}
		index := make(map[string]uint32)
		for _, r := range rows {
			id, ok := index[r.dims[d]]
			if !ok {
				id = uint32(len(dv.Dict))
				dv.Dict = append(dv.Dict, r.dims[d])
				index[r.dims[d]] = id
			}
			dv.IDs = append(dv.IDs, id)
		}
		v.Dims = append(v.Dims, dv)
	}
	for m, name := range measNames {
		mv := measureView{Name: name}
		for _, r := range rows {
			mv.Bits = append(mv.Bits, math.Float64bits(r.meas[m]))
		}
		v.Measures = append(v.Measures, mv)
	}
	return v, nil
}

// TestBuilderMatchesTwoPassEncoding runs random rows through the
// encode-on-append Builder and the two-pass reference: without a time
// order, with SetTimeOrder before or after the appends, and with orders
// that miss a label or repeat one. Both must fail, or build the same
// relation.
func TestBuilderMatchesTwoPassEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	labels := []string{"2021-03", "2021-01", "w10", "w9", "", "2021-02"}
	values := []string{"x", "y", "", "x,y", "Z"}
	dimNames, measNames := []string{"a", "b"}, []string{"m", "n"}
	const (
		sorted = iota
		orderBefore
		orderAfter
	)
	var cases [3]int
	var unknown, duplicate int
	for iter := 0; iter < 2000; iter++ {
		rows := make([]builderRow, rng.Intn(30))
		for i := range rows {
			rows[i] = builderRow{
				time: labels[rng.Intn(len(labels))],
				dims: []string{values[rng.Intn(len(values))], values[rng.Intn(len(values))]},
				meas: []float64{rng.NormFloat64(), []float64{0, math.Copysign(0, -1), math.NaN(), 1e-310}[rng.Intn(4)]},
			}
		}
		mode := rng.Intn(3)
		var order []string
		if mode != sorted {
			// A random subset in random order, now and then with a label twice.
			for _, i := range rng.Perm(len(labels))[:1+rng.Intn(len(labels))] {
				order = append(order, labels[i])
			}
			if rng.Intn(8) == 0 {
				order = append(order, order[rng.Intn(len(order))])
			}
		}
		b := relation.NewBuilder("p", "t", dimNames, measNames)
		if mode == orderBefore {
			b.SetTimeOrder(order)
		}
		for _, r := range rows {
			if err := b.Append(r.time, r.dims, r.meas); err != nil {
				t.Fatal(err)
			}
		}
		if mode == orderAfter {
			b.SetTimeOrder(order)
		}
		got, err := b.Finish()
		want, wantErr := twoPassView(rows, dimNames, measNames, order)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("iteration %d: Builder error %v, two-pass error %v", iter, err, wantErr)
		}
		cases[mode]++
		if err != nil {
			if strings.Contains(err.Error(), "duplicate") {
				duplicate++
			} else {
				unknown++
			}
			continue
		}
		if d := diffViews(viewOf(got), want); d != "" {
			t.Fatalf("iteration %d (mode %d): Builder differs from the two-pass encoding: %s", iter, mode, d)
		}
	}
	if cases[sorted] == 0 || cases[orderBefore] == 0 || cases[orderAfter] == 0 || unknown == 0 || duplicate == 0 {
		t.Fatalf("generator missed a case: modes %v, %d unknown-label and %d duplicate-label errors",
			cases, unknown, duplicate)
	}
}
