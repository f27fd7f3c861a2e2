package catalog

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// FuzzParseManifest drives manifest validation with arbitrary JSON: it
// must never panic, every accepted manifest must satisfy its own
// invariants (valid names, resolvable aggregate, consistent explain-by
// set), and re-encoding an accepted manifest must parse back to an
// accepted manifest (upload → store → reload round-trip stability).
func FuzzParseManifest(f *testing.F) {
	f.Add(`{"name":"sales","timeCol":"day","dimCols":["state"],"measureCol":"value"}`)
	f.Add(`{"name":"x","aliases":["y","z"],"timeCol":"t","dimCols":["a","b"],"measureCol":"m","agg":"AVG","explainBy":["a"],"maxOrder":2,"smoothWindow":7}`)
	f.Add(`{"name":"hc","timeCol":"T","dimCols":["user","region"],"measureCol":"events","approx":{"maxCandidates":4096,"epsilon":0.05}}`)
	f.Add(`{"name":"BAD NAME","timeCol":"t","dimCols":["a"],"measureCol":"m"}`)
	f.Add(`{"name":"dup","timeCol":"t","dimCols":["a","a"],"measureCol":"m"}`)
	f.Add(`{"name":"x","timeCol":"t","dimCols":["a"],"measureCol":"m","unknownField":1}`)
	f.Add(`not json`)
	f.Add(`{"name":"x","timeCol":"t","dimCols":["a"],"measureCol":"m","approx":{"epsilon":0.9}}`)
	// Hierarchy and range-bin declarations: the valid shapes…
	f.Add(`{"name":"tax","timeCol":"T","dimCols":["cat","subcat","leaf"],"measureCol":"sales","explainBy":["cat","subcat","leaf"],"hierarchies":[{"name":"taxonomy","levels":["cat","subcat","leaf"]}]}`)
	f.Add(`{"name":"geo","timeCol":"t","dimCols":["path"],"measureCol":"m","explainBy":["state","county"],"hierarchies":[{"name":"geo","levels":["state","county"],"pathCol":"path","delim":"/"}]}`)
	f.Add(`{"name":"rb","timeCol":"t","dimCols":["a"],"measureCol":"m","explainBy":["a","price_bin"],"rangeBins":[{"column":"price","bins":8,"as":"price_bin"}]}`)
	// …and the rejected ones: unknown level, cyclic path (pathCol among
	// its own levels), delim without pathCol, level collisions, bad bins.
	f.Add(`{"name":"bad","timeCol":"t","dimCols":["a"],"measureCol":"m","hierarchies":[{"name":"h","levels":["a","nope"]}]}`)
	f.Add(`{"name":"cyc","timeCol":"t","dimCols":["p"],"measureCol":"m","hierarchies":[{"name":"h","levels":["x","p"],"pathCol":"p"}]}`)
	f.Add(`{"name":"dl","timeCol":"t","dimCols":["a","b"],"measureCol":"m","hierarchies":[{"name":"h","levels":["a","b"],"delim":":"}]}`)
	f.Add(`{"name":"ov","timeCol":"t","dimCols":["a","b","c"],"measureCol":"m","hierarchies":[{"name":"h1","levels":["a","b"]},{"name":"h2","levels":["b","c"]}]}`)
	f.Add(`{"name":"nb","timeCol":"t","dimCols":["a"],"measureCol":"m","rangeBins":[{"column":"price","bins":1}]}`)
	f.Add(`{"name":"cl","timeCol":"t","dimCols":["a"],"measureCol":"m","rangeBins":[{"column":"price","as":"a"}]}`)
	// A valid document followed by a second one.
	f.Add(`{"name":"sales","timeCol":"day","dimCols":["state"],"measureCol":"value"} {"x":1}`)
	// Recorded range-bin edges: valid, empty, non-increasing, too many.
	f.Add(`{"name":"rbe","timeCol":"t","dimCols":["a"],"measureCol":"m","rangeBins":[{"column":"price","bins":4,"edges":[1,2.5,10]}]}`)
	f.Add(`{"name":"rbz","timeCol":"t","dimCols":["a"],"measureCol":"m","rangeBins":[{"column":"price","edges":[]}]}`)
	f.Add(`{"name":"rbd","timeCol":"t","dimCols":["a"],"measureCol":"m","rangeBins":[{"column":"price","edges":[3,3]}]}`)
	f.Add(`{"name":"rbn","timeCol":"t","dimCols":["a"],"measureCol":"m","rangeBins":[{"column":"price","bins":2,"edges":[1,2]}]}`)

	f.Fuzz(func(t *testing.T, data string) {
		m, err := ParseManifest([]byte(data))
		if err != nil {
			return
		}
		if !ValidName(m.Name) {
			t.Fatalf("accepted invalid name %q", m.Name)
		}
		for _, a := range m.Aliases {
			if !ValidName(a) {
				t.Fatalf("accepted invalid alias %q", a)
			}
		}
		if _, err := m.AggFunc(); err != nil {
			t.Fatalf("accepted unresolvable aggregate %q: %v", m.Agg, err)
		}
		nBy := len(m.ExplainBy)
		if nBy == 0 {
			nBy = len(m.DimCols)
		}
		if o := m.EffectiveMaxOrder(); o < 1 || o > nBy {
			t.Fatalf("effective max order %d out of range for %d explain-by attributes", o, nBy)
		}
		// Accepted derived-column declarations must satisfy their own
		// invariants: known, non-cyclic hierarchy inputs and in-range,
		// collision-free range bins.
		dimSet := map[string]bool{}
		for _, d := range m.DimCols {
			dimSet[d] = true
		}
		for _, h := range m.Hierarchies {
			if len(h.Levels) < 2 {
				t.Fatalf("accepted hierarchy %q with %d levels", h.Name, len(h.Levels))
			}
			if h.PathCol != "" {
				if !dimSet[h.PathCol] {
					t.Fatalf("accepted hierarchy %q with unknown pathCol %q", h.Name, h.PathCol)
				}
				for _, l := range h.Levels {
					if l == h.PathCol {
						t.Fatalf("accepted cyclic hierarchy %q: pathCol %q is one of its levels", h.Name, h.PathCol)
					}
				}
			} else {
				if h.Delim != "" {
					t.Fatalf("accepted hierarchy %q with delim but no pathCol", h.Name)
				}
				for _, l := range h.Levels {
					if !dimSet[l] {
						t.Fatalf("accepted hierarchy %q with unknown level %q", h.Name, l)
					}
				}
			}
		}
		for _, rb := range m.RangeBins {
			if b := rb.EffectiveBins(); b < 2 || b > 4096 {
				t.Fatalf("accepted range bin over %q with %d bins", rb.Column, b)
			}
			as := rb.EffectiveAs()
			if as == rb.Column || dimSet[as] || as == m.TimeCol || as == m.MeasureCol {
				t.Fatalf("accepted colliding range-bin column %q", as)
			}
			if rb.Column == m.TimeCol || dimSet[rb.Column] {
				t.Fatalf("accepted range bin over non-numeric column %q", rb.Column)
			}
			if rb.Edges == nil {
				continue
			}
			edges := *rb.Edges
			if len(edges) > rb.EffectiveBins()-1 {
				t.Fatalf("accepted %d edges for %d bins over %q", len(edges), rb.EffectiveBins(), rb.Column)
			}
			for j, e := range edges {
				if math.IsNaN(e) || math.IsInf(e, 0) || (j > 0 && !(e > edges[j-1])) {
					t.Fatalf("accepted edges %v over %q: not finite and strictly increasing", edges, rb.Column)
				}
			}
		}
		// Round trip: store and reload must accept the same document.
		enc, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		m2, err := ParseManifest(enc)
		if err != nil {
			t.Fatalf("round-trip rejected: %v\noriginal: %s\nencoded: %s", err, data, enc)
		}
		if m2.Name != m.Name || m2.TimeCol != m.TimeCol || m2.MeasureCol != m.MeasureCol {
			t.Fatalf("round-trip mutated the manifest: %+v vs %+v", m, m2)
		}
		// Recorded edges survive the round trip exactly, and so does their
		// absence: an empty list must not come back as "fit again".
		for i, rb := range m.RangeBins {
			got := m2.RangeBins[i].Edges
			if (got == nil) != (rb.Edges == nil) || (got != nil && !reflect.DeepEqual(*got, *rb.Edges)) {
				t.Fatalf("round-trip changed range bin %q edges from %v to %v", rb.Column, rb.Edges, got)
			}
		}
	})
}
