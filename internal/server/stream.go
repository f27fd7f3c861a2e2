package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/relation"
)

// handleStream demonstrates the real-time extension end to end: it
// replays the chosen dataset through the incremental append path, feeding
// the engine one batch of timestamps at a time, and streams one NDJSON
// line per update with the refreshed segmentation and the update's
// latency — each update costs O(delta), not O(history).
//
//	GET /api/stream?dataset=stream&start=60&step=1
//
// start is the number of timestamps explained up front (default: half the
// series); step is how many timestamps each update appends (default 1).
// The usual dataset/smooth/vanilla/k parameters apply.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	p, err := s.parseParams(r)
	if err != nil {
		writeError(w, err)
		return
	}
	// The whole replay holds one worker slot: a streaming client is a
	// long-lived compute consumer, and admission must see it as such.
	sh := s.reg.shardFor(p.dataset)
	release, err := sh.admit(r.Context())
	if err != nil {
		writeError(w, err)
		return
	}
	defer release()
	d, err := s.reg.dataset(p.dataset)
	if err != nil {
		writeError(w, err)
		return
	}
	n := d.Rel.NumTimestamps()
	start := n / 2
	if start < 2 {
		start = 2
	}
	q := r.URL.Query()
	if v := q.Get("start"); v != "" {
		if start, err = strconv.Atoi(v); err != nil || start < 2 || start >= n {
			writeError(w, httpErrf(http.StatusBadRequest, "bad start %q (want 2..%d)", v, n-1))
			return
		}
	}
	step := 1
	if v := q.Get("step"); v != "" {
		if step, err = strconv.Atoi(v); err != nil || step < 1 {
			writeError(w, httpErrf(http.StatusBadRequest, "bad step %q", v))
			return
		}
	}

	byTime := d.Rel.RowsByTime()
	prefix, err := prefixRelation(d.Rel, byTime, start)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	opts := p.options(d)
	opts.K = p.k
	buildStart := time.Now()
	inc, res, err := core.NewIncrementalCtx(r.Context(), prefix, core.Query{
		Measure: d.Measure, Agg: d.Agg, ExplainBy: d.ExplainBy,
	}, opts)
	if err != nil {
		writeError(w, err)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	writeUpdate := func(u streamUpdate) {
		// The headers already went out as 200, so an update JSON cannot
		// carry is reported in-band. Encode writes nothing on failure,
		// and an error string always encodes; a failed write means the
		// client left, which the context check below notices.
		if err := enc.Encode(u); err != nil {
			_ = enc.Encode(streamUpdate{Error: "encoding update: " + err.Error()})
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	writeUpdate(newStreamUpdate(d.Rel, res, start, time.Since(buildStart), true))

	for t := start; t < n; t += step {
		// Stop replaying into a dead connection or past the request
		// deadline — a client that hung up must not keep the server
		// computing updates to completion. The headers already went out
		// as 200, so a deadline-truncated replay is marked with a final
		// NDJSON error line instead of silently looking complete.
		if err := r.Context().Err(); err != nil {
			writeUpdate(streamUpdate{Error: "replay aborted: " + err.Error()})
			return
		}
		hi := t + step
		if hi > n {
			hi = n
		}
		timeVals, dims, measures := d.Rel.RowBatch(byTime, t, hi)
		upStart := time.Now()
		res, err = inc.AppendRows(timeVals, dims, measures)
		if err != nil {
			writeUpdate(streamUpdate{Error: err.Error()})
			return
		}
		writeUpdate(newStreamUpdate(d.Rel, res, hi, time.Since(upStart), false))
	}
}

// streamUpdate is one NDJSON line of /api/stream.
type streamUpdate struct {
	Day     string   `json:"day,omitempty"`
	N       int      `json:"n,omitempty"`
	Initial bool     `json:"initial,omitempty"`
	K       int      `json:"k,omitempty"`
	Cuts    []int    `json:"cuts,omitempty"`
	Top     []string `json:"top,omitempty"`
	Ms      float64  `json:"ms"`
	Error   string   `json:"error,omitempty"`
}

func newStreamUpdate(rel *relation.Relation, res *core.Result, n int, took time.Duration, initial bool) streamUpdate {
	u := streamUpdate{
		Day:     rel.TimeLabel(n - 1),
		N:       n,
		Initial: initial,
		K:       res.K,
		Cuts:    res.Cuts(),
		Ms:      ms(took),
	}
	if len(res.Segments) > 0 {
		last := res.Segments[len(res.Segments)-1]
		for _, e := range last.Top {
			u.Top = append(u.Top, fmt.Sprintf("%s (%s)", e.Predicates, e.Effect))
		}
	}
	return u
}

// prefixRelation materializes the first n timestamps of rel through the
// Builder path, yielding the stream's starting snapshot.
func prefixRelation(rel *relation.Relation, byTime [][]int, n int) (*relation.Relation, error) {
	labels := rel.TimeLabels()[:n]
	b := relation.NewBuilder(rel.Name()+"-stream", rel.TimeName(), rel.DimNames(), rel.MeasureNames())
	b.SetTimeOrder(labels)
	timeVals, dims, measures := rel.RowBatch(byTime, 0, n)
	for i := range timeVals {
		if err := b.Append(timeVals[i], dims[i], measures[i]); err != nil {
			return nil, err
		}
	}
	return b.Finish()
}
