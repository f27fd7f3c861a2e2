package relation

import "fmt"

// AggFunc identifies a decomposable aggregate function f(M) applied to a
// measure attribute. All three supported aggregates decompose into
// (sum, count) pairs, which is what lets the engine derive
// f(R − σ_E R) from f(R) and f(σ_E R) in O(1) (Section 5.2).
type AggFunc int

const (
	// Sum aggregates with SUM(M).
	Sum AggFunc = iota
	// Count aggregates with COUNT(M) (row count; the measure is ignored).
	Count
	// Avg aggregates with AVG(M).
	Avg
)

// String returns the SQL spelling of the aggregate.
func (f AggFunc) String() string {
	switch f {
	case Sum:
		return "SUM"
	case Count:
		return "COUNT"
	case Avg:
		return "AVG"
	default:
		return fmt.Sprintf("AggFunc(%d)", int(f))
	}
}

// ParseAggFunc parses "SUM", "COUNT", or "AVG" (case-sensitive SQL
// spelling).
func ParseAggFunc(s string) (AggFunc, error) {
	switch s {
	case "SUM":
		return Sum, nil
	case "COUNT":
		return Count, nil
	case "AVG":
		return Avg, nil
	default:
		return 0, fmt.Errorf("relation: unknown aggregate function %q", s)
	}
}

// Eval computes the aggregate value from a (sum, count) pair. For Avg of
// an empty slice the result is 0 rather than NaN so that series over
// sparse slices stay finite.
func (f AggFunc) Eval(sum float64, count float64) float64 {
	switch f {
	case Sum:
		return sum
	case Count:
		return count
	case Avg:
		if count == 0 {
			return 0
		}
		return sum / count
	default:
		panic("relation: invalid AggFunc")
	}
}

// SumCount holds the decomposed state of an aggregate at one timestamp.
type SumCount struct {
	Sum   float64
	Count float64
}

// Sub returns the element-wise difference s − o, i.e. the state of the
// aggregate after removing the records o accounts for.
func (s SumCount) Sub(o SumCount) SumCount {
	return SumCount{Sum: s.Sum - o.Sum, Count: s.Count - o.Count}
}

// AggregateSeries computes the decomposed per-timestamp aggregate state of
// measure m over all rows: the result has NumTimestamps entries.
func (r *Relation) AggregateSeries(m int) []SumCount {
	out := make([]SumCount, r.NumTimestamps())
	vals := r.measures[m].vals
	for row := 0; row < r.numRows; row++ {
		t := r.timeIdx[row]
		out[t].Sum += vals[row]
		out[t].Count++
	}
	return out
}

// Values evaluates the aggregate function over a decomposed series,
// producing the aggregated time series values p_i.v of Definition 3.6.
func Values(f AggFunc, sc []SumCount) []float64 {
	out := make([]float64, len(sc))
	for i, s := range sc {
		out[i] = f.Eval(s.Sum, s.Count)
	}
	return out
}
