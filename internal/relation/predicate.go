package relation

import (
	"fmt"
	"sort"
	"strings"
)

// Pred is a single equality predicate Attr=value over a dimension
// attribute, with the value dictionary-encoded against a specific
// Relation's column.
type Pred struct {
	Dim   int    // dimension index within the relation
	Value uint32 // dictionary id within that dimension
}

// Conjunction is a set of predicates over distinct dimensions, i.e. an
// explanation's data-slice selector (Definition 3.1). Predicates are kept
// sorted by dimension index so conjunctions have a canonical form.
type Conjunction []Pred

// NewConjunction builds a canonical Conjunction from attribute=value pairs
// resolved against r. It fails when an attribute is unknown, a value never
// occurs, or the same attribute appears twice.
func NewConjunction(r *Relation, pairs map[string]string) (Conjunction, error) {
	c := make(Conjunction, 0, len(pairs))
	//tsexplain:unordered canonicalized by normalize() below
	for attr, val := range pairs {
		di := r.DimIndex(attr)
		if di < 0 {
			return nil, fmt.Errorf("relation: unknown dimension %q", attr)
		}
		id, ok := r.Dim(di).ID(val)
		if !ok {
			return nil, fmt.Errorf("relation: value %q never occurs in dimension %q", val, attr)
		}
		c = append(c, Pred{Dim: di, Value: id})
	}
	c.normalize()
	return c, nil
}

// normalize sorts predicates by dimension index.
func (c Conjunction) normalize() {
	sort.Slice(c, func(i, j int) bool { return c[i].Dim < c[j].Dim })
}

// Order returns the number of predicates in the conjunction (β in the
// paper's notation).
func (c Conjunction) Order() int { return len(c) }

// HasDim reports whether the conjunction constrains dimension dim.
func (c Conjunction) HasDim(dim int) bool {
	for _, p := range c {
		if p.Dim == dim {
			return true
		}
	}
	return false
}

// ValueFor returns the dictionary id the conjunction pins dimension dim
// to. ok is false when dim is unconstrained.
func (c Conjunction) ValueFor(dim int) (id uint32, ok bool) {
	for _, p := range c {
		if p.Dim == dim {
			return p.Value, true
		}
	}
	return 0, false
}

// Without returns a new Conjunction with the predicate over dimension dim
// removed. Removing an unconstrained dimension returns an equal copy.
func (c Conjunction) Without(dim int) Conjunction {
	out := make(Conjunction, 0, len(c))
	for _, p := range c {
		if p.Dim != dim {
			out = append(out, p)
		}
	}
	return out
}

// Key returns a canonical map key for the conjunction, unique within one
// Relation.
func (c Conjunction) Key() string {
	var sb strings.Builder
	for i, p := range c {
		if i > 0 {
			sb.WriteByte('&')
		}
		fmt.Fprintf(&sb, "%d=%d", p.Dim, p.Value)
	}
	return sb.String()
}

// String renders the conjunction with attribute and value names resolved
// against r, e.g. "state=NY & age>50" style "state=NY&county=Kings".
func (c Conjunction) String(r *Relation) string {
	if len(c) == 0 {
		return "(all)"
	}
	var sb strings.Builder
	for i, p := range c {
		if i > 0 {
			sb.WriteString(" & ")
		}
		sb.WriteString(r.Dim(p.Dim).Name())
		sb.WriteByte('=')
		sb.WriteString(r.Dim(p.Dim).Value(p.Value))
	}
	return sb.String()
}
