package server

import (
	"bufio"
	"strings"
	"testing"

	"repro/internal/catalog"
)

// FuzzParseAppendNDJSON drives the NDJSON append decoder with arbitrary
// bodies: it must never panic, and on success the row-major output it
// hands to Relation.AppendRows must be internally consistent (equal
// lengths, full dimension arity, one measure per row) and hold one row
// per non-empty line.
func FuzzParseAppendNDJSON(f *testing.F) {
	f.Add(`{"time":"2024-01-01","dims":{"state":"NY","region":"east"},"measure":3}`)
	f.Add(`{"time":"2024-01-01","dims":{"state":"NY","region":"east"},"measures":{"value":1.5}}`)
	f.Add("{\"time\":\"a\",\"dims\":{\"state\":\"x\",\"region\":\"y\"},\"measure\":1}\n\n{\"time\":\"b\",\"dims\":{\"state\":\"x\",\"region\":\"y\"},\"measure\":2}")
	f.Add(`{"time":"","dims":{},"measure":null}`)
	f.Add(`{"unknown":true}`)
	f.Add("not json at all")
	f.Add(`{"time":"t","dims":{"state":"NY","region":"east","extra":"boom"},"measure":1}`)
	f.Add(`{"time":"t","dims":{"state":"NY","region":"east"},"measure":1} {"time":"u","dims":{"state":"NY","region":"east"},"measure":2}`)
	f.Add(`{"time":"t","dims":{"state":"NY","region":"east"},"measure":1,"measures":{"value":2}}`)
	f.Add(`{"time":"t","dims":{"state":"NY","region":"east"},"measures":{"value":1,"other":2}}`)

	m := &catalog.Manifest{
		Name:       "fuzz",
		TimeCol:    "day",
		DimCols:    []string{"state", "region"},
		MeasureCol: "value",
	}
	f.Fuzz(func(t *testing.T, body string) {
		timeVals, dims, measures, err := parseAppendNDJSON(strings.NewReader(body), m)
		if err != nil {
			if timeVals != nil || dims != nil || measures != nil {
				t.Fatalf("error return leaks partial rows: %v", err)
			}
			return
		}
		if len(timeVals) == 0 {
			t.Fatal("nil error with zero rows")
		}
		lines := 0
		sc := bufio.NewScanner(strings.NewReader(body))
		sc.Buffer(nil, len(body)+1)
		for sc.Scan() {
			if len(sc.Bytes()) > 0 {
				lines++
			}
		}
		if len(timeVals) != lines {
			t.Fatalf("%d rows from %d non-empty lines", len(timeVals), lines)
		}
		if len(dims) != len(timeVals) || len(measures) != len(timeVals) {
			t.Fatalf("row-major shapes diverge: %d times, %d dims, %d measures",
				len(timeVals), len(dims), len(measures))
		}
		for i := range timeVals {
			if timeVals[i] == "" {
				t.Fatalf("row %d: empty time accepted", i)
			}
			if len(dims[i]) != len(m.DimCols) {
				t.Fatalf("row %d: %d dimension values, want %d", i, len(dims[i]), len(m.DimCols))
			}
			if len(measures[i]) != 1 {
				t.Fatalf("row %d: %d measures, want 1", i, len(measures[i]))
			}
		}
	})
}
