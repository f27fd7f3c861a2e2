package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/relation"
)

// This file implements the catalog admin surface — the bring-your-own-
// data API:
//
//	POST   /api/datasets               multipart upload: "manifest" (JSON)
//	                                   + "csv" (file) → dataset created
//	DELETE /api/datasets/{name}        dataset removed, engines evicted
//	POST   /api/datasets/{name}/append NDJSON delta rows → O(delta)
//	                                   streaming ingestion
//
// All three require a catalog (-data-dir); without one they return 403.
// Upload and append accept ?wait=1 to block until the background
// warm-restart snapshot refresh finishes — tests and scripted restarts
// use it; interactive callers get the response as soon as the durable
// CSV write lands.

// uploadLimitBytes bounds one multipart upload (manifest + CSV).
const uploadLimitBytes = 256 << 20

// appendLimitBytes bounds one NDJSON append batch.
const appendLimitBytes = 64 << 20

// The 413 messages for bodies over those limits (see overLimitErr).
const (
	uploadTooBig = "upload exceeds %d bytes"
	appendTooBig = "append body exceeds %d bytes; split the batch"
)

// errNoCatalog is returned by the admin endpoints on a server running
// without -data-dir.
func errNoCatalog() error {
	return httpErrf(http.StatusForbidden, "this server runs without a data directory (-data-dir); the dataset admin API is disabled")
}

// handleDatasetUpload serves POST /api/datasets: a multipart form with a
// "manifest" part (the catalog.Manifest JSON) and a "csv" part (the data,
// header row required). The CSV is parsed through the manifest before
// anything is written — a bad upload fails with 400, one over the size cap
// with 413, and either leaves no trace — and the dataset is written
// atomically, published to the registry, and snapshotted in the
// background.
func (s *Server) handleDatasetUpload(w http.ResponseWriter, r *http.Request) {
	if s.reg.cat == nil {
		writeError(w, errNoCatalog())
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, uploadLimitBytes)
	mr, err := r.MultipartReader()
	if err != nil {
		writeError(w, httpErrf(http.StatusBadRequest, "expected a multipart upload: %v", err))
		return
	}
	var manifest *catalog.Manifest
	var rel *relation.Relation
	// Parts must arrive manifest-first so the CSV can stream straight
	// into the parser without buffering the whole file.
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			writeError(w, uploadErr(fmt.Errorf("reading upload: %w", err)))
			return
		}
		switch part.FormName() {
		case "manifest":
			m, err := readManifestPart(part)
			if err != nil {
				writeError(w, httpErrf(http.StatusBadRequest, "%v", err))
				return
			}
			manifest = m
		case "csv":
			if manifest == nil {
				writeError(w, httpErrf(http.StatusBadRequest, "the manifest part must precede the csv part"))
				return
			}
			created, err := s.reg.cat.Create(*manifest, part)
			if err != nil {
				writeError(w, uploadErr(err))
				return
			}
			rel = created
		default:
			part.Close()
		}
	}
	if manifest == nil || rel == nil {
		writeError(w, httpErrf(http.StatusBadRequest, "upload needs a manifest part and a csv part"))
		return
	}

	// Publish the parsed relation straight into the registry — the next
	// request serves it without re-reading the CSV that was just written —
	// and refresh the warm-restart snapshot off the request path.
	agg, err := manifest.AggFunc()
	if err != nil {
		writeError(w, httpErrf(http.StatusBadRequest, "%v", err))
		return
	}
	s.reg.replaceDataset(manifest.Name, &datasets.Dataset{
		Name:         manifest.Name,
		Rel:          rel,
		Measure:      manifest.MeasureCol,
		Agg:          agg,
		ExplainBy:    manifest.ExplainBy,
		MaxOrder:     manifest.EffectiveMaxOrder(),
		SmoothWindow: manifest.SmoothWindow,
	})
	s.met.catalogUploads.Add(1)
	done := s.reg.refreshSnapshot(manifest.Name)
	if r.URL.Query().Get("wait") == "1" {
		select {
		case <-done:
		case <-r.Context().Done():
		}
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"dataset":    manifest.Name,
		"aliases":    manifest.Aliases,
		"rows":       rel.NumRows(),
		"timestamps": rel.NumTimestamps(),
	})
}

// readManifestPart decodes and validates the manifest part, additionally
// rejecting names and aliases that would shadow a built-in dataset.
func readManifestPart(part *multipart.Part) (*catalog.Manifest, error) {
	defer part.Close()
	data, err := io.ReadAll(io.LimitReader(part, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("reading manifest: %w", err)
	}
	m, err := catalog.ParseManifest(data)
	if err != nil {
		return nil, err
	}
	if isReservedDatasetName(m.Name) {
		return nil, fmt.Errorf("dataset name %q is reserved by a built-in dataset", m.Name)
	}
	for _, a := range m.Aliases {
		if isReservedDatasetName(a) {
			return nil, fmt.Errorf("alias %q is reserved by a built-in dataset", a)
		}
	}
	return &m, nil
}

// uploadErr maps upload and catalog errors to their HTTP status. An upload
// cut off by the size cap, between parts or inside the CSV part (whose
// parser wraps the read error), carries an *http.MaxBytesError and
// answers 413.
func uploadErr(err error) error {
	if tooBig := overLimitErr(err, uploadTooBig); tooBig != nil {
		return tooBig
	}
	switch {
	case errors.Is(err, catalog.ErrExists):
		return httpErrf(http.StatusConflict, "%v", err)
	case errors.Is(err, catalog.ErrNotFound):
		return httpErrf(http.StatusNotFound, "%v", err)
	default:
		return httpErrf(http.StatusBadRequest, "%v", err)
	}
}

// handleDatasetDelete serves DELETE /api/datasets/{name}: the dataset is
// removed from disk, its pooled engines and cached results are dropped
// (in-flight requests finish on their pinned engines — eviction removes
// from the pool, it never yanks an engine out from under a request), and
// its streaming ingestion state is discarded.
func (s *Server) handleDatasetDelete(w http.ResponseWriter, r *http.Request) {
	if s.reg.cat == nil {
		writeError(w, errNoCatalog())
		return
	}
	name := r.PathValue("name")
	if isReservedDatasetName(name) {
		writeError(w, httpErrf(http.StatusBadRequest, "built-in dataset %q cannot be deleted", name))
		return
	}
	canon, ok := s.reg.cat.Resolve(name)
	if !ok {
		writeError(w, httpErrf(http.StatusNotFound, "unknown dataset %q", name))
		return
	}
	if err := s.reg.cat.Delete(canon); err != nil {
		writeError(w, uploadErr(err))
		return
	}
	s.reg.dropLive(canon)
	s.reg.replaceDataset(canon, nil)
	s.met.catalogDeletes.Add(1)
	writeJSON(w, http.StatusOK, map[string]any{"deleted": canon})
}

// appendRow is one NDJSON line of the append body: the time label, the
// dimension values by attribute name, and the measure value.
type appendRow struct {
	Time     string             `json:"time"`
	Dims     map[string]string  `json:"dims"`
	Measure  *float64           `json:"measure"`
	Measures map[string]float64 `json:"measures,omitempty"` // alternative keyed form
}

// handleDatasetAppend serves POST /api/datasets/{name}/append: an NDJSON
// body, one row per line, fed through the dataset's persistent
// incremental engine (Relation.AppendRows → Universe.Append → restricted
// re-segmentation — the PR 3 streaming path, O(delta) per batch),
// persisted to the dataset's CSV, and published to the serving path. The
// response carries the refreshed segmentation. Rows must land at or after
// the dataset's current last timestamp; earlier rows are rejected with
// 400 and nothing is applied.
func (s *Server) handleDatasetAppend(w http.ResponseWriter, r *http.Request) {
	if s.reg.cat == nil {
		writeError(w, errNoCatalog())
		return
	}
	name := r.PathValue("name")
	canon, ok := s.reg.cat.Resolve(name)
	if !ok {
		if isReservedDatasetName(name) {
			writeError(w, httpErrf(http.StatusBadRequest, "built-in dataset %q does not accept appends", name))
			return
		}
		writeError(w, httpErrf(http.StatusNotFound, "unknown dataset %q", name))
		return
	}
	m, _ := s.reg.cat.Manifest(canon)
	// MaxBytesReader (not a silent LimitReader) so an oversize batch
	// fails deterministically instead of being truncated mid-stream —
	// a truncation landing on a line boundary would otherwise ingest a
	// prefix of the batch and report success.
	r.Body = http.MaxBytesReader(w, r.Body, appendLimitBytes)
	timeVals, dims, measures, err := parseAppendNDJSON(r.Body, &m)
	if err != nil {
		writeError(w, err)
		return
	}

	// Ingestion is compute (a cold first append builds the streaming
	// engine; every append re-segments): take a worker slot like any
	// other compute request.
	sh := s.reg.shardFor(canon)
	release, err := sh.admit(r.Context())
	if err != nil {
		writeError(w, err)
		return
	}
	res, err := func() (*core.Result, error) {
		defer release()
		return s.reg.appendDelta(r.Context(), canon, timeVals, dims, measures)
	}()
	if err != nil {
		// A concurrent delete can race the append; surface it as 404
		// rather than a generic 500.
		if errors.Is(err, catalog.ErrNotFound) {
			err = uploadErr(err)
		}
		writeError(w, err)
		return
	}

	done := s.reg.refreshSnapshot(canon)
	if r.URL.Query().Get("wait") == "1" {
		select {
		case <-done:
		case <-r.Context().Done():
		}
	}
	resp := map[string]any{
		"dataset": canon,
		"rows":    len(timeVals),
		"n":       len(res.Labels),
		"k":       res.K,
		"cuts":    res.Cuts(),
	}
	if len(res.Segments) > 0 {
		last := res.Segments[len(res.Segments)-1]
		var top []string
		for _, e := range last.Top {
			top = append(top, fmt.Sprintf("%s (%s)", e.Predicates, e.Effect))
		}
		resp["top"] = top
	}
	writeJSON(w, http.StatusOK, resp)
}

// overLimitErr maps a MaxBytesReader overflow anywhere in err's chain to
// its 413 response, whose message is format applied to the byte limit;
// nil for any other (or no) error.
func overLimitErr(err error, format string) error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return httpErrf(http.StatusRequestEntityTooLarge, format, mbe.Limit)
	}
	return nil
}

// parseAppendNDJSON decodes the append body into the row-major shape
// Relation.AppendRows consumes, resolving dimension values through the
// manifest's attribute names so row order in the JSON object does not
// matter.
func parseAppendNDJSON(body io.Reader, m *catalog.Manifest) (timeVals []string, dims [][]string, measures [][]float64, err error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64*1024), 4<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var row appendRow
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&row); err != nil {
			// The scanner hands over its final token BEFORE reporting the
			// read error, so an over-limit body surfaces here as a
			// truncated last line — report the size limit, not a
			// misleading parse error.
			if tooBig := overLimitErr(sc.Err(), appendTooBig); tooBig != nil {
				return nil, nil, nil, tooBig
			}
			return nil, nil, nil, httpErrf(http.StatusBadRequest, "append line %d: %v", line, err)
		}
		if row.Time == "" {
			return nil, nil, nil, httpErrf(http.StatusBadRequest, "append line %d: missing time", line)
		}
		dv := make([]string, len(m.DimCols))
		for i, col := range m.DimCols {
			v, ok := row.Dims[col]
			if !ok {
				return nil, nil, nil, httpErrf(http.StatusBadRequest, "append line %d: missing dimension %q", line, col)
			}
			dv[i] = v
		}
		if len(row.Dims) != len(m.DimCols) {
			return nil, nil, nil, httpErrf(http.StatusBadRequest, "append line %d: %d dimension values, want %d", line, len(row.Dims), len(m.DimCols))
		}
		// Datasets with range bins carry extra measure columns (the bin
		// sources); those rows must use the keyed form so every column is
		// named explicitly.
		measCols := m.Spec().MeasCols
		mvs := make([]float64, len(measCols))
		switch {
		case row.Measure != nil && len(measCols) == 1:
			mvs[0] = *row.Measure
		case row.Measure != nil:
			return nil, nil, nil, httpErrf(http.StatusBadRequest,
				"append line %d: dataset has %d measure columns; use the keyed \"measures\" form", line, len(measCols))
		case row.Measures != nil:
			for i, col := range measCols {
				v, ok := row.Measures[col]
				if !ok {
					return nil, nil, nil, httpErrf(http.StatusBadRequest, "append line %d: missing measure %q", line, col)
				}
				mvs[i] = v
			}
		default:
			return nil, nil, nil, httpErrf(http.StatusBadRequest, "append line %d: missing measure", line)
		}
		timeVals = append(timeVals, row.Time)
		dims = append(dims, dv)
		measures = append(measures, mvs)
	}
	if err := sc.Err(); err != nil {
		if tooBig := overLimitErr(err, appendTooBig); tooBig != nil {
			return nil, nil, nil, tooBig
		}
		return nil, nil, nil, httpErrf(http.StatusBadRequest, "reading append body: %v", err)
	}
	if len(timeVals) == 0 {
		return nil, nil, nil, httpErrf(http.StatusBadRequest, "append body holds no rows")
	}
	return timeVals, dims, measures, nil
}
