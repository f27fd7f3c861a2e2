package server

import (
	"net/http"
	"strings"

	"repro/internal/relation"
)

// parseConjunction decodes "attr=value&attr2=value2" against a relation.
// An empty expression denotes the root (whole relation). Values may
// contain "&" themselves ("Vendor Name=William Grant & Sons"): the
// expression is only split at an "&" followed by a dimension name and
// "=".
func parseConjunction(r *relation.Relation, expr string) (relation.Conjunction, error) {
	if expr == "" {
		return nil, nil
	}
	pairs := make(map[string]string)
	for _, part := range splitPredicates(expr, r.DimNames()) {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 || kv[0] == "" {
			return nil, httpErrf(http.StatusBadRequest, "bad predicate %q (want attr=value)", part)
		}
		if _, dup := pairs[kv[0]]; dup {
			return nil, httpErrf(http.StatusBadRequest, "attribute %q repeated", kv[0])
		}
		pairs[kv[0]] = kv[1]
	}
	conj, err := relation.NewConjunction(r, pairs)
	if err != nil {
		return nil, httpErrf(http.StatusBadRequest, "%v", err)
	}
	return conj, nil
}

// splitPredicates splits expr at every "&" that starts another predicate
// — one followed by one of the attribute names and "=" — and leaves any
// other "&" inside the value it belongs to.
func splitPredicates(expr string, attrs []string) []string {
	var parts []string
	start := 0
	for i := 0; i < len(expr); i++ {
		if expr[i] != '&' {
			continue
		}
		rest := expr[i+1:]
		for _, a := range attrs {
			if strings.HasPrefix(rest, a+"=") {
				parts = append(parts, expr[start:i])
				start = i + 1
				break
			}
		}
	}
	return append(parts, expr[start:])
}

// sliceResponse is the JSON shape of /api/slice.
type sliceResponse struct {
	Dataset   string          `json:"dataset"`
	Expr      string          `json:"expr"`
	Labels    []string        `json:"labels"`
	Series    []float64       `json:"series"`
	Share     float64         `json:"shareOfTotal"`
	DrillDown []drillDownJSON `json:"drillDown"`
}

type drillDownJSON struct {
	Attribute string   `json:"attribute"`
	Children  []string `json:"children"`
}

// handleSlice serves the OLAP navigation of Section 1 ("users can freely
// perform drill-down, roll-up, slicing and dicing, and visualize what
// has happened"): given a dataset and a conjunction like
// "state=New York" or "Pack=12&Bottle Volume (ml)=750", it returns that
// slice's aggregated series plus the drill-down children available under
// each remaining explain-by attribute.
func (s *Server) handleSlice(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name, err := s.resolveDataset(q.Get("dataset"))
	if err != nil {
		writeError(w, err)
		return
	}
	eng, release, err := s.reg.engineShared(r.Context(), params{dataset: name, adhoc: true})
	if err != nil {
		writeError(w, err)
		return
	}
	defer release()
	u := eng.Universe()
	rel := u.Relation()
	conj, err := parseConjunction(rel, q.Get("expr"))
	if err != nil {
		writeError(w, err)
		return
	}

	resp := sliceResponse{
		Dataset: name,
		Expr:    q.Get("expr"),
		Labels:  rel.TimeLabels(),
	}
	nodeID := -1
	if len(conj) > 0 {
		id, ok := u.Lookup(conj)
		if !ok {
			writeError(w, httpErrf(http.StatusNotFound, "slice %q has no data", q.Get("expr")))
			return
		}
		nodeID = id
		resp.Series = u.CandidateValues(id)
	} else {
		resp.Series = u.TotalValues()
	}

	// Share of the overall aggregate (summed over time, SUM semantics).
	var sliceSum, totalSum float64
	total := u.TotalValues()
	for i := range resp.Series {
		sliceSum += resp.Series[i]
		totalSum += total[i]
	}
	if totalSum != 0 {
		resp.Share = sliceSum / totalSum
	}

	// Drill-down children grouped by the free explain-by attributes.
	for _, dim := range u.ExplainBy() {
		if conj.HasDim(dim) {
			continue
		}
		kids := u.ChildrenOf(nodeID, dim)
		if len(kids) == 0 {
			continue
		}
		dd := drillDownJSON{Attribute: rel.Dim(dim).Name()}
		for _, kid := range kids {
			v, _ := u.Candidate(int(kid)).Conj.ValueFor(dim)
			dd.Children = append(dd.Children, rel.Dim(dim).Value(v))
		}
		resp.DrillDown = append(resp.DrillDown, dd)
	}

	writeJSON(w, http.StatusOK, resp)
}

// handleDiff serves /api/diff?dataset=...&from=<label>&to=<label>: the
// two-relations diff building block between two timestamps, run on the
// ad-hoc engine's unsmoothed series. k, smooth and mode are validated, not
// used.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	p, err := s.parseParams(r)
	if err != nil {
		writeError(w, err)
		return
	}
	_, eng, release, err := s.reg.acquire(r.Context(), params{dataset: p.dataset, adhoc: true})
	if err != nil {
		writeError(w, err)
		return
	}
	defer release()
	rel := eng.Universe().Relation()
	from, to := -1, -1
	for i := 0; i < rel.NumTimestamps(); i++ {
		switch rel.TimeLabel(i) {
		case q.Get("from"):
			from = i
		case q.Get("to"):
			to = i
		}
	}
	if from < 0 || to < 0 || from >= to {
		writeError(w, httpErrf(http.StatusBadRequest,
			"need from/to labels with from before to"))
		return
	}
	top, err := eng.TopExplanations(from, to)
	if err != nil {
		writeError(w, httpErrf(http.StatusBadRequest, "%v", err))
		return
	}
	out := map[string]any{
		"dataset": p.dataset,
		"from":    q.Get("from"),
		"to":      q.Get("to"),
	}
	var tops []explJSON
	for _, e := range top {
		tops = append(tops, explJSON{Predicates: e.Predicates, Effect: e.Effect.String(), Gamma: e.Gamma, Path: e.Path})
	}
	out["top"] = tops
	writeJSON(w, http.StatusOK, out)
}
