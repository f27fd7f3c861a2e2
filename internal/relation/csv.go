package relation

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// CSVSpec describes how to map a CSV file with a header row onto a
// Relation: which column is the time dimension, which columns are
// categorical dimensions, and which are numeric measures. Columns not
// listed are ignored.
type CSVSpec struct {
	Name     string   // relation name (informational)
	TimeCol  string   // header of the time column
	DimCols  []string // headers of dimension columns
	MeasCols []string // headers of measure columns
}

// ReadCSV loads a relation from CSV data with a header row, in one pass:
// each record's values go straight into the column dictionaries.
//
// It accepts exactly what encoding/csv's Reader accepts at its defaults.
// Fields are separated by commas. A field that starts with a double quote
// is quoted: it may hold commas and newlines, and "" inside it stands for
// one quote. A "\r\n" line ending reads as "\n", and a "\r" right before
// the end of the input is dropped. Empty lines between records are
// skipped. Every record must have as many fields as the header. A quote
// inside an unquoted field, a closing quote followed by anything but a
// comma or the end of the line, and a quoted field still open at the end
// of the input are errors. Errors from src come back wrapped, so
// errors.Is and errors.As reach them.
func ReadCSV(src io.Reader, spec CSVSpec) (*Relation, error) {
	cr := newCSVReader(src)
	header, err := cr.next()
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV header: %w", err)
	}
	colAt := make(map[string]int, len(header))
	for i, h := range header {
		colAt[string(h)] = i
	}
	timeAt, ok := colAt[spec.TimeCol]
	if !ok {
		return nil, fmt.Errorf("relation: CSV has no time column %q", spec.TimeCol)
	}
	dimAt := make([]int, len(spec.DimCols))
	for i, name := range spec.DimCols {
		at, ok := colAt[name]
		if !ok {
			return nil, fmt.Errorf("relation: CSV has no dimension column %q", name)
		}
		dimAt[i] = at
	}
	measAt := make([]int, len(spec.MeasCols))
	for i, name := range spec.MeasCols {
		at, ok := colAt[name]
		if !ok {
			return nil, fmt.Errorf("relation: CSV has no measure column %q", name)
		}
		measAt[i] = at
	}

	b := NewBuilder(spec.Name, spec.TimeCol, spec.DimCols, spec.MeasCols)
	meas := make([]float64, len(measAt))
	line := 1
	for {
		rec, err := cr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation: reading CSV: %w", err)
		}
		line++
		for i, at := range measAt {
			v, err := strconv.ParseFloat(string(rec[at]), 64)
			if err != nil {
				return nil, fmt.Errorf("relation: CSV line %d, column %q: %w", line, spec.MeasCols[i], err)
			}
			meas[i] = v
		}
		b.appendRecord(rec, timeAt, dimAt, meas)
	}
	return b.Finish()
}

// csvReader splits CSV input into records the way ReadCSV documents. It
// hands out each field as a byte slice into its own buffers instead of
// allocating strings; the slices are valid until the next call to next.
type csvReader struct {
	br    *bufio.Reader
	line  int // physical lines read so far
	width int // fields per record, fixed by the first record

	long   []byte   // a line longer than br's buffer
	quoted []byte   // unescaped fields of a record that holds a quote
	ends   []int    // end offset of each field in quoted
	fields [][]byte // the current record
}

func newCSVReader(src io.Reader) *csvReader {
	return &csvReader{br: bufio.NewReaderSize(src, 64<<10)}
}

// next returns the fields of the next record, or io.EOF after the last.
func (r *csvReader) next() ([][]byte, error) {
	line, err := r.readLine()
	for err == nil && len(line) == lengthNL(line) {
		line, err = r.readLine()
	}
	if err != nil {
		return nil, err
	}
	start := r.line
	if bytes.IndexByte(line, '"') < 0 {
		r.fields = r.fields[:0]
		rest := line[:len(line)-lengthNL(line)]
		for {
			i := bytes.IndexByte(rest, ',')
			if i < 0 {
				break
			}
			r.fields = append(r.fields, rest[:i])
			rest = rest[i+1:]
		}
		r.fields = append(r.fields, rest)
	} else if err := r.parseQuoted(line); err != nil {
		return nil, err
	}
	if r.width == 0 {
		r.width = len(r.fields)
	} else if len(r.fields) != r.width {
		return nil, fmt.Errorf("record on line %d: %w: %d, want %d", start, csv.ErrFieldCount, len(r.fields), r.width)
	}
	return r.fields, nil
}

// parseQuoted splits a record whose first line holds a quote, reading
// further lines while a quoted field runs past the end of one.
func (r *csvReader) parseQuoted(line []byte) error {
	r.quoted, r.ends = r.quoted[:0], r.ends[:0]
fields:
	for {
		if len(line) == 0 || line[0] != '"' {
			i := bytes.IndexByte(line, ',')
			field := line
			if i >= 0 {
				field = field[:i]
			} else {
				field = field[:len(field)-lengthNL(field)]
			}
			if bytes.IndexByte(field, '"') >= 0 {
				return fmt.Errorf("line %d: %w", r.line, csv.ErrBareQuote)
			}
			r.quoted = append(r.quoted, field...)
			r.ends = append(r.ends, len(r.quoted))
			if i < 0 {
				break fields
			}
			line = line[i+1:]
			continue
		}
		line = line[1:]
		for {
			i := bytes.IndexByte(line, '"')
			if i < 0 {
				// The field runs on into the next line.
				r.quoted = append(r.quoted, line...)
				var err error
				if line, err = r.readLine(); err == io.EOF {
					return fmt.Errorf("line %d: %w", r.line, csv.ErrQuote)
				} else if err != nil {
					return err
				}
				continue
			}
			r.quoted = append(r.quoted, line[:i]...)
			line = line[i+1:]
			if len(line) == 0 || line[0] != '"' {
				break
			}
			r.quoted = append(r.quoted, '"') // "" is one literal quote
			line = line[1:]
		}
		r.ends = append(r.ends, len(r.quoted))
		switch {
		case len(line) > 0 && line[0] == ',':
			line = line[1:]
		case len(line) == lengthNL(line):
			break fields
		default:
			return fmt.Errorf("line %d: %w", r.line, csv.ErrQuote)
		}
	}
	r.fields = r.fields[:0]
	from := 0
	for _, end := range r.ends {
		r.fields = append(r.fields, r.quoted[from:end])
		from = end
	}
	return nil
}

// readLine returns the next physical line. Like encoding/csv it reads a
// "\r\n" ending as "\n" and drops a "\r" right before the end of the
// input, and it returns io.EOF only with an empty line. The slice is
// valid until the next call.
func (r *csvReader) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		r.long = append(r.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = r.br.ReadSlice('\n')
			r.long = append(r.long, line...)
		}
		line = r.long
	}
	if len(line) > 0 && err == io.EOF {
		err = nil
		if line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
	}
	r.line++
	if n := len(line); n >= 2 && line[n-2] == '\r' && line[n-1] == '\n' {
		line[n-2] = '\n'
		line = line[:n-1]
	}
	return line, err
}

// lengthNL is 1 when b ends in a newline, else 0.
func lengthNL(b []byte) int {
	if len(b) > 0 && b[len(b)-1] == '\n' {
		return 1
	}
	return 0
}

// WriteCSV writes the relation as CSV with a header row: time column
// first, then dimensions, then measures. Derived dimension columns (path
// hierarchy levels, range bins) are skipped — they are recomputed from the
// base columns on load, so the on-disk CSV always keeps the base schema.
func WriteCSV(dst io.Writer, r *Relation) error {
	cw := csv.NewWriter(dst)
	nd := r.NumBaseDims()
	header := append([]string{r.TimeName()}, r.DimNames()[:nd]...)
	header = append(header, r.MeasureNames()...)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("relation: writing CSV header: %w", err)
	}
	rec := make([]string, len(header))
	for row := 0; row < r.NumRows(); row++ {
		rec[0] = r.TimeLabel(r.TimeIndex(row))
		for d := 0; d < nd; d++ {
			rec[1+d] = r.DimValue(d, row)
		}
		for m := 0; m < r.NumMeasures(); m++ {
			rec[1+nd+m] = strconv.FormatFloat(r.MeasureValue(m, row), 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("relation: writing CSV row %d: %w", row, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
