package core

import (
	"context"
	"sort"

	"repro/internal/explain"
	"repro/internal/relation"
)

// AttributeScore reports how explanatory one dimension attribute is for a
// series, for the explain-by recommendation (one of the paper's stated
// future-work directions: "recommending explain-by attributes").
type AttributeScore struct {
	// Attribute is the dimension attribute name.
	Attribute string
	// Coverage is the fraction of the overall |change| along the series
	// that the attribute's single best slice per unit step accounts for,
	// averaged over steps; higher means the attribute's values separate
	// the movement well.
	Coverage float64
	// Cardinality is the number of distinct values (for tie-breaking:
	// lower-cardinality attributes are easier to read).
	Cardinality int
}

// RecommendExplainBy ranks every dimension attribute of the relation by
// how well its order-1 slices explain the per-step changes of the
// aggregated series. It is a lightweight screening pass: for each unit
// step and attribute, the best single slice's γ is compared to the total
// absolute change contributed by that attribute's slices.
//
// Attributes whose top slice consistently captures a large share of each
// step's movement (e.g. "state" for covid) rank high; attributes whose
// movement is spread thinly across many values (e.g. "Vendor Name" for
// liquor) rank low.
func RecommendExplainBy(rel *relation.Relation, q Query) ([]AttributeScore, error) {
	return RecommendExplainByCtx(nil, rel, q)
}

// RecommendExplainByCtx is RecommendExplainBy with a cancellation
// context: the per-attribute universe builds observe ctx, so an expired
// request stops screening instead of building every remaining dimension.
func RecommendExplainByCtx(ctx context.Context, rel *relation.Relation, q Query) ([]AttributeScore, error) {
	var out []AttributeScore
	for d := 0; d < rel.NumDims(); d++ {
		name := rel.Dim(d).Name()
		u, err := explain.NewUniverse(rel, explain.Config{
			Measure:   q.Measure,
			Agg:       q.Agg,
			ExplainBy: []string{name},
			MaxOrder:  1,
			Cancel:    ctxCancelFunc(ctx),
		})
		if err != nil {
			return nil, err
		}
		n := u.NumTimestamps()
		var covSum float64
		var steps int
		for t := 0; t+1 < n; t++ {
			var best, total float64
			for id := 0; id < u.NumCandidates(); id++ {
				g, _ := u.Gamma(id, t, t+1)
				total += g
				if g > best {
					best = g
				}
			}
			if total > 0 {
				covSum += best / total
				steps++
			}
		}
		score := AttributeScore{Attribute: name, Cardinality: rel.Dim(d).Cardinality()}
		if steps > 0 {
			score.Coverage = covSum / float64(steps)
		}
		out = append(out, score)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Coverage != out[j].Coverage {
			return out[i].Coverage > out[j].Coverage
		}
		return out[i].Cardinality < out[j].Cardinality
	})
	return out, nil
}
