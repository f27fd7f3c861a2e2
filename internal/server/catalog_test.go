package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// catalogTestCSV is a small dataset with a clear driver structure: NY
// drives the ramp, CA stays flat.
func catalogTestCSV(days int) string {
	var b strings.Builder
	b.WriteString("day,state,county,cases\n")
	for d := 1; d <= days; d++ {
		ny := 10
		if d > days/2 {
			ny = 10 + 20*(d-days/2)
		}
		fmt.Fprintf(&b, "2021-03-%02d,NY,kings,%d\n", d, ny)
		fmt.Fprintf(&b, "2021-03-%02d,NY,queens,%d\n", d, ny/2)
		fmt.Fprintf(&b, "2021-03-%02d,CA,la,8\n", d)
	}
	return b.String()
}

const catalogTestManifest = `{
  "name": "mydata",
  "aliases": ["md", "mine"],
  "timeCol": "day",
  "dimCols": ["state", "county"],
  "measureCol": "cases",
  "agg": "SUM",
  "maxOrder": 2
}`

// newCatalogServer opens a server over the catalog in dir and closes it
// when the test ends. Cleanups run last-registered first, so Close, which
// waits for background snapshot refreshes, finishes before a TempDir
// created ahead of the server is removed.
func newCatalogServer(t *testing.T, dir string) *Server {
	t.Helper()
	s, err := Open(Config{Shards: 2, WorkersPerShard: 2, QueueDepth: 8, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// upload posts a multipart dataset (manifest JSON + CSV) and returns the
// recorder. wait=1 blocks until the snapshot refresh lands, so a restart
// immediately after upload finds a snapshot.
func upload(t *testing.T, s *Server, manifest, csvData string, wait bool) *httptest.ResponseRecorder {
	t.Helper()
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	fw, err := mw.CreateFormField("manifest")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write([]byte(manifest)); err != nil {
		t.Fatal(err)
	}
	cw, err := mw.CreateFormFile("csv", "data.csv")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cw.Write([]byte(csvData)); err != nil {
		t.Fatal(err)
	}
	mw.Close()
	url := "/api/datasets"
	if wait {
		url += "?wait=1"
	}
	req := httptest.NewRequest("POST", url, &body)
	req.Header.Set("Content-Type", mw.FormDataContentType())
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func appendNDJSON(t *testing.T, s *Server, dataset, ndjson string, wait bool) *httptest.ResponseRecorder {
	t.Helper()
	url := "/api/datasets/" + dataset + "/append"
	if wait {
		url += "?wait=1"
	}
	req := httptest.NewRequest("POST", url, strings.NewReader(ndjson))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestCatalogUploadExplainDelete(t *testing.T) {
	dir := t.TempDir()
	s := newCatalogServer(t, dir)

	// Admin API is disabled without a data dir.
	noCat := New()
	if rec := upload(t, noCat, catalogTestManifest, catalogTestCSV(10), false); rec.Code != 403 {
		t.Fatalf("upload without data dir: %d", rec.Code)
	}

	rec := upload(t, s, catalogTestManifest, catalogTestCSV(12), false)
	if rec.Code != 201 {
		t.Fatalf("upload: %d: %s", rec.Code, rec.Body.String())
	}
	var created struct {
		Dataset    string `json:"dataset"`
		Rows       int    `json:"rows"`
		Timestamps int    `json:"timestamps"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	if created.Dataset != "mydata" || created.Rows != 36 || created.Timestamps != 12 {
		t.Fatalf("created = %+v", created)
	}

	// Listed alongside the built-ins.
	var listing struct {
		Datasets []string `json:"datasets"`
		Catalog  []string `json:"catalog"`
	}
	if err := json.Unmarshal(get(t, s, "/api/datasets").Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Catalog) != 1 || listing.Catalog[0] != "mydata" {
		t.Fatalf("catalog listing = %v", listing.Catalog)
	}

	// Explain the uploaded dataset; NY should surface as the driver of
	// the later segment.
	erec := get(t, s, "/api/explain?dataset=mydata")
	if erec.Code != 200 {
		t.Fatalf("explain: %d: %s", erec.Code, erec.Body.String())
	}
	var res explainResponse
	if err := json.Unmarshal(erec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) < 2 {
		t.Fatalf("segments = %d, want >= 2", len(res.Segments))
	}
	last := res.Segments[len(res.Segments)-1]
	if len(last.Top) == 0 || !strings.Contains(last.Top[0].Predicates, "state=NY") {
		t.Fatalf("last segment top = %+v, want state=NY driver", last.Top)
	}

	// Slice and diff work on catalog datasets through the adhoc engine.
	if rec := get(t, s, "/api/slice?dataset=mydata&expr=state=NY"); rec.Code != 200 {
		t.Fatalf("slice: %d: %s", rec.Code, rec.Body.String())
	}

	// Duplicate upload: 409.
	if rec := upload(t, s, catalogTestManifest, catalogTestCSV(12), false); rec.Code != 409 {
		t.Fatalf("duplicate upload: %d", rec.Code)
	}
	// Reserved name: 400.
	reserved := strings.Replace(catalogTestManifest, `"mydata"`, `"liquor"`, 1)
	if rec := upload(t, s, reserved, catalogTestCSV(10), false); rec.Code != 400 {
		t.Fatalf("reserved-name upload: %d", rec.Code)
	}

	// Delete; the dataset stops resolving and its engines are gone.
	req := httptest.NewRequest("DELETE", "/api/datasets/mydata", nil)
	drec := httptest.NewRecorder()
	s.ServeHTTP(drec, req)
	if drec.Code != 200 {
		t.Fatalf("delete: %d: %s", drec.Code, drec.Body.String())
	}
	if rec := get(t, s, "/api/explain?dataset=mydata"); rec.Code != 404 {
		t.Fatalf("explain after delete: %d", rec.Code)
	}
	if n := s.reg.engineEntries(); n != 0 {
		t.Fatalf("engines after delete: %d, want 0", n)
	}
	if rec := get(t, s, "/api/datasets"); strings.Contains(rec.Body.String(), "mydata") {
		t.Fatal("deleted dataset still listed")
	}
	// Deleting a built-in is refused.
	req = httptest.NewRequest("DELETE", "/api/datasets/covid", nil)
	drec = httptest.NewRecorder()
	s.ServeHTTP(drec, req)
	if drec.Code != 400 {
		t.Fatalf("delete built-in: %d", drec.Code)
	}
}

func TestCatalogManifestAliases(t *testing.T) {
	s := newCatalogServer(t, t.TempDir())
	if rec := upload(t, s, catalogTestManifest, catalogTestCSV(10), false); rec.Code != 201 {
		t.Fatalf("upload: %d", rec.Code)
	}
	canonical := get(t, s, "/api/explain?dataset=mydata")
	if canonical.Code != 200 {
		t.Fatalf("canonical explain: %d", canonical.Code)
	}
	computesAfterCanonical := s.reg.computes.Load()
	for _, alias := range []string{"md", "mine"} {
		rec := get(t, s, "/api/explain?dataset="+alias)
		if rec.Code != 200 {
			t.Fatalf("alias %q explain: %d", alias, rec.Code)
		}
		var a, c explainResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(canonical.Body.Bytes(), &c); err != nil {
			t.Fatal(err)
		}
		// Latency differs between computed and cached responses; compare
		// everything else.
		a.Latency, c.Latency = latencyBreakdown{}, latencyBreakdown{}
		if !reflect.DeepEqual(a, c) {
			t.Fatalf("alias %q result differs from canonical", alias)
		}
	}
	// The aliases hit the canonical cache entry: no extra computes ran.
	if n := s.reg.computes.Load(); n != computesAfterCanonical {
		t.Fatalf("aliases recomputed: %d computes, want %d", n, computesAfterCanonical)
	}
	// The alias dataset name in the response is canonical (one cache key).
	if n := s.reg.resultEntries(); n != 1 {
		t.Fatalf("result entries = %d, want 1 shared across aliases", n)
	}
}

func TestCatalogAppendFlow(t *testing.T) {
	s := newCatalogServer(t, t.TempDir())
	if rec := upload(t, s, catalogTestManifest, catalogTestCSV(12), false); rec.Code != 201 {
		t.Fatalf("upload: %d", rec.Code)
	}
	// Warm the serving path.
	if rec := get(t, s, "/api/explain?dataset=mydata"); rec.Code != 200 {
		t.Fatalf("explain: %d", rec.Code)
	}

	// Append two new days, including a brand-new state (dictionary
	// growth through the streaming path).
	delta := `{"time":"2021-03-13","dims":{"state":"NY","county":"kings"},"measure":140}
{"time":"2021-03-13","dims":{"state":"FL","county":"dade"},"measure":60}
{"time":"2021-03-14","dims":{"state":"NY","county":"kings"},"measure":150}
{"time":"2021-03-14","dims":{"state":"FL","county":"dade"},"measure":80}
`
	rec := appendNDJSON(t, s, "mydata", delta, false)
	if rec.Code != 200 {
		t.Fatalf("append: %d: %s", rec.Code, rec.Body.String())
	}
	var ap struct {
		Rows int   `json:"rows"`
		N    int   `json:"n"`
		Cuts []int `json:"cuts"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ap); err != nil {
		t.Fatal(err)
	}
	if ap.Rows != 4 || ap.N != 14 {
		t.Fatalf("append response = %+v, want 4 rows over 14 days", ap)
	}

	// The serving path sees the appended days and the new FL slice.
	erec := get(t, s, "/api/explain?dataset=mydata")
	var res explainResponse
	if err := json.Unmarshal(erec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if got := res.Segments[len(res.Segments)-1].End; got != "2021-03-14" {
		t.Fatalf("explain after append ends at %q, want 2021-03-14", got)
	}
	if rec := get(t, s, "/api/slice?dataset=mydata&expr=state=FL"); rec.Code != 200 {
		t.Fatalf("FL slice after append: %d: %s", rec.Code, rec.Body.String())
	}

	// Rows before the last timestamp are rejected and change nothing.
	bad := `{"time":"2021-03-01","dims":{"state":"NY","county":"kings"},"measure":1}` + "\n"
	if rec := appendNDJSON(t, s, "mydata", bad, false); rec.Code != 400 {
		t.Fatalf("past-append: %d: %s", rec.Code, rec.Body.String())
	}
	// An UNSEEN label that sorts before the tail is just as invalid: the
	// relation layer would order it by arrival, but the CSV reload sorts
	// lexicographically — accepting it would make a restarted series
	// disagree with the live one.
	bad = `{"time":"2020-12-31","dims":{"state":"NY","county":"kings"},"measure":1}` + "\n"
	if rec := appendNDJSON(t, s, "mydata", bad, false); rec.Code != 400 {
		t.Fatalf("unseen-past append: %d: %s", rec.Code, rec.Body.String())
	}
	// Out-of-order new labels within one batch are rejected for the same
	// reason (2021-03-16 staged, then 2021-03-15 would land after it in
	// arrival order but before it after a reload).
	bad = `{"time":"2021-03-16","dims":{"state":"NY","county":"kings"},"measure":1}` + "\n" +
		`{"time":"2021-03-15","dims":{"state":"NY","county":"kings"},"measure":1}` + "\n"
	if rec := appendNDJSON(t, s, "mydata", bad, false); rec.Code != 400 {
		t.Fatalf("out-of-order batch append: %d: %s", rec.Code, rec.Body.String())
	}
	// The rejected batches left no trace: the series still ends at the
	// last good append.
	if rec := get(t, s, "/api/explain?dataset=mydata"); !strings.Contains(rec.Body.String(), "2021-03-14") {
		t.Fatalf("rejected appends disturbed the series: %s", rec.Body.String())
	}
	// Malformed rows: missing dims, unknown fields, empty body.
	for _, b := range []string{
		`{"time":"2021-03-15","measure":1}` + "\n",
		`{"time":"2021-03-15","dims":{"state":"NY","county":"kings"},"measure":1,"nope":2}` + "\n",
		"",
	} {
		if rec := appendNDJSON(t, s, "mydata", b, false); rec.Code != 400 {
			t.Fatalf("bad append body %q: %d", b, rec.Code)
		}
	}
	// Appending to a built-in or unknown dataset fails cleanly.
	if rec := appendNDJSON(t, s, "covid", delta, false); rec.Code != 400 {
		t.Fatalf("append to built-in: %d", rec.Code)
	}
	if rec := appendNDJSON(t, s, "nope", delta, false); rec.Code != 404 {
		t.Fatalf("append to unknown: %d", rec.Code)
	}
}

// TestCatalogWarmRestart uploads with a synchronous snapshot refresh,
// then opens a second server over the same data dir and asserts the
// dataset and its engines restore from the snapshot — and that the
// explanations match the first server's bit for bit.
func TestCatalogWarmRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := newCatalogServer(t, dir)
	if rec := upload(t, s1, catalogTestManifest, catalogTestCSV(12), true); rec.Code != 201 {
		t.Fatalf("upload: %d", rec.Code)
	}
	first := get(t, s1, "/api/explain?dataset=mydata")
	if first.Code != 200 {
		t.Fatalf("first explain: %d", first.Code)
	}

	// "Restart": a fresh server over the same directory.
	s2 := newCatalogServer(t, dir)
	second := get(t, s2, "/api/explain?dataset=mydata")
	if second.Code != 200 {
		t.Fatalf("post-restart explain: %d: %s", second.Code, second.Body.String())
	}
	var a, b explainResponse
	if err := json.Unmarshal(first.Body.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	a.Latency, b.Latency = latencyBreakdown{}, latencyBreakdown{}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("post-restart explanations differ from pre-restart")
	}
	if n := s2.met.snapshotRelRestores.Load(); n < 1 {
		t.Fatalf("relation snapshot restores = %d, want >= 1", n)
	}
	if n := s2.met.snapshotEngRestores.Load(); n < 1 {
		t.Fatalf("engine snapshot restores = %d, want >= 1", n)
	}
	// The restore counters surface on /metrics for the smoke script.
	if body := get(t, s2, "/metrics").Body.String(); !strings.Contains(body, `tsexplain_snapshot_restores_total{kind="engine"} 1`) {
		t.Fatal("metrics missing snapshot restore counter")
	}

	// With snapshots disabled, the same directory still serves — via the
	// CSV rebuild path — and no restore is counted.
	s3, err := Open(Config{DataDir: dir, DisableSnapshots: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec := get(t, s3, "/api/explain?dataset=mydata"); rec.Code != 200 {
		t.Fatalf("snapshot-disabled explain: %d", rec.Code)
	}
	if n := s3.met.snapshotRelRestores.Load() + s3.met.snapshotEngRestores.Load(); n != 0 {
		t.Fatalf("snapshot restores with snapshots disabled: %d", n)
	}
}

// TestCatalogSnapshotStaleAfterOfflineAppend covers the fallback: rows
// appended while the snapshot existed (fingerprint mismatch) must force a
// CSV rebuild that sees the new rows, not a stale restore.
func TestCatalogSnapshotStaleAfterOfflineAppend(t *testing.T) {
	dir := t.TempDir()
	s1 := newCatalogServer(t, dir)
	if rec := upload(t, s1, catalogTestManifest, catalogTestCSV(12), true); rec.Code != 201 {
		t.Fatalf("upload: %d", rec.Code)
	}
	// Append WITHOUT waiting for the snapshot refresh on a throwaway
	// server, then immediately restart: the snapshot on disk may predate
	// the append, and the fingerprint must catch it.
	if rec := appendNDJSON(t, s1, "mydata",
		`{"time":"2021-03-13","dims":{"state":"NY","county":"kings"},"measure":999}`+"\n", false); rec.Code != 200 {
		t.Fatalf("append: %d", rec.Code)
	}

	s2 := newCatalogServer(t, dir)
	rec := get(t, s2, "/api/explain?dataset=mydata")
	if rec.Code != 200 {
		t.Fatalf("explain: %d", rec.Code)
	}
	var res explainResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if got := res.Segments[len(res.Segments)-1].End; got != "2021-03-13" {
		t.Fatalf("post-restart series ends at %q, want the appended 2021-03-13", got)
	}
}

// TestCatalogUnusableSnapshotIsRewritten: a snapshot the server cannot
// use — here one in an older container format — falls back to the CSV
// and is rewritten in the background, so the next restart restores from
// it instead of parsing the CSV again.
func TestCatalogUnusableSnapshotIsRewritten(t *testing.T) {
	dir := t.TempDir()
	s1 := newCatalogServer(t, dir)
	if rec := upload(t, s1, catalogTestManifest, catalogTestCSV(12), true); rec.Code != 201 {
		t.Fatalf("upload: %d", rec.Code)
	}
	s1.Close()
	path := filepath.Join(dir, "mydata", "snapshot.bin")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len("TSXSNAP")] = 2 // the previous container version
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newCatalogServer(t, dir)
	if rec := get(t, s2, "/api/explain?dataset=mydata"); rec.Code != 200 {
		t.Fatalf("explain over an old-format snapshot: %d: %s", rec.Code, rec.Body.String())
	}
	if n := s2.met.snapshotFallbacks.Load(); n != 1 {
		t.Fatalf("snapshot fallbacks = %d, want 1", n)
	}
	s2.Close() // waits for the background rewrite

	s3 := newCatalogServer(t, dir)
	if rec := get(t, s3, "/api/explain?dataset=mydata"); rec.Code != 200 {
		t.Fatalf("explain after the rewrite: %d: %s", rec.Code, rec.Body.String())
	}
	if n := s3.met.snapshotRelRestores.Load(); n < 1 {
		t.Fatalf("relation snapshot restores after the rewrite = %d, want >= 1", n)
	}
}

// TestCatalogConcurrentUploadWhileExplaining drives uploads, appends,
// explains, slices, and deletes concurrently (run under -race in CI).
func TestCatalogConcurrentUploadWhileExplaining(t *testing.T) {
	s := newCatalogServer(t, t.TempDir())
	if rec := upload(t, s, catalogTestManifest, catalogTestCSV(12), false); rec.Code != 201 {
		t.Fatalf("seed upload: %d", rec.Code)
	}

	var wg sync.WaitGroup
	// Explainers and slicers hammer the dataset across the mutations.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 15; j++ {
				rec := get(t, s, "/api/explain?dataset=mydata&k=2")
				if rec.Code != 200 && rec.Code != 404 && rec.Code != 429 && rec.Code != 503 {
					t.Errorf("explain status %d: %s", rec.Code, rec.Body.String())
					return
				}
				get(t, s, "/api/slice?dataset=mydata")
			}
		}()
	}
	// One appender extends the series.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for d := 13; d < 20; d++ {
			body := fmt.Sprintf(`{"time":"2021-03-%02d","dims":{"state":"NY","county":"kings"},"measure":%d}`+"\n", d, 100+d)
			rec := appendNDJSON(t, s, "mydata", body, false)
			if rec.Code != 200 && rec.Code != 429 && rec.Code != 503 {
				t.Errorf("append status %d: %s", rec.Code, rec.Body.String())
				return
			}
		}
	}()
	// Other datasets come and go concurrently.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			mf := fmt.Sprintf(`{"name":"scratch%d","timeCol":"day","dimCols":["state","county"],"measureCol":"cases"}`, i)
			if rec := upload(t, s, mf, catalogTestCSV(8), false); rec.Code != 201 {
				t.Errorf("scratch upload: %d", rec.Code)
				return
			}
			get(t, s, fmt.Sprintf("/api/explain?dataset=scratch%d", i))
			req := httptest.NewRequest("DELETE", fmt.Sprintf("/api/datasets/scratch%d", i), nil)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != 200 {
				t.Errorf("scratch delete: %d", rec.Code)
				return
			}
		}
	}()
	wg.Wait()

	// The dataset is intact and serves the final appended day.
	rec := get(t, s, "/api/explain?dataset=mydata")
	if rec.Code != 200 {
		t.Fatalf("final explain: %d", rec.Code)
	}
	var res explainResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if got := res.Segments[len(res.Segments)-1].End; got != "2021-03-19" {
		t.Fatalf("final series ends at %q, want 2021-03-19", got)
	}
}

// failingBody yields data, then err in place of io.EOF: a request body
// cut off by a size cap looks like this to the handler.
type failingBody struct {
	data []byte
	err  error
}

func (b *failingBody) Read(p []byte) (int, error) {
	if len(b.data) == 0 {
		return 0, b.err
	}
	n := copy(p, b.data)
	b.data = b.data[n:]
	return n, nil
}

func (b *failingBody) Close() error { return nil }

// TestUploadOverLimitIs413: an upload cut off by the size cap answers 413
// as API.md promises, whether the cap hits inside the CSV part (the error
// comes back wrapped through catalog.Create and the CSV parser) or before
// a part starts; a plain CSV error stays 400.
func TestUploadOverLimitIs413(t *testing.T) {
	tooBig := &http.MaxBytesError{Limit: uploadLimitBytes}
	if got := errorCode(uploadErr(fmt.Errorf("relation: reading CSV: %w", tooBig))); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("uploadErr of a wrapped MaxBytesError = %d, want 413", got)
	}
	if got := errorCode(uploadErr(errors.New("relation: CSV has no time column"))); got != http.StatusBadRequest {
		t.Fatalf("uploadErr of a CSV error = %d, want 400", got)
	}

	s := newCatalogServer(t, t.TempDir())
	var head bytes.Buffer
	mw := multipart.NewWriter(&head)
	fw, err := mw.CreateFormField("manifest")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write([]byte(catalogTestManifest)); err != nil {
		t.Fatal(err)
	}
	cw, err := mw.CreateFormFile("csv", "data.csv")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cw.Write([]byte(catalogTestCSV(12))); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{
		"inside the csv part": head.Bytes(),
		"before any part":     nil,
	} {
		req := httptest.NewRequest("POST", "/api/datasets", nil)
		req.Body = &failingBody{data: body, err: tooBig}
		req.Header.Set("Content-Type", mw.FormDataContentType())
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("upload over the cap %s: %d (%s), want 413", name, rec.Code, rec.Body.String())
		}
	}
	if rec := get(t, s, "/api/explain?dataset=mydata"); rec.Code != 404 {
		t.Fatalf("a cut-off upload left a dataset behind: explain answered %d", rec.Code)
	}
}

// gateWriter blocks the first log write that contains line until release
// is closed, and reports that write on entered.
type gateWriter struct {
	line    string
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gateWriter) Write(p []byte) (int, error) {
	if strings.Contains(string(p), g.line) {
		g.once.Do(func() {
			close(g.entered)
			<-g.release
		})
	}
	return len(p), nil
}

// TestCloseWaitsForSnapshotRefresh: Close returns only after a running
// background snapshot refresh has finished, and starts none afterwards, so
// no refresh writes into the data directory once the server is closed.
// The refresh is held at its last step (the log line after the save) by
// a log writer that blocks.
func TestCloseWaitsForSnapshotRefresh(t *testing.T) {
	gate := &gateWriter{line: "refreshed in", entered: make(chan struct{}), release: make(chan struct{})}
	release := sync.OnceFunc(func() { close(gate.release) })
	log.SetOutput(gate)
	defer log.SetOutput(os.Stderr)
	defer release() // never leave the refresh blocked, or Close would wait forever

	dir := t.TempDir()
	s := newCatalogServer(t, dir)
	if rec := upload(t, s, catalogTestManifest, catalogTestCSV(12), false); rec.Code != 201 {
		t.Fatalf("upload: %d: %s", rec.Code, rec.Body.String())
	}
	select {
	case <-gate.entered:
	case <-time.After(30 * time.Second):
		t.Fatal("the upload's snapshot refresh never ran")
	}

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a snapshot refresh was still running")
	case <-time.After(100 * time.Millisecond):
	}
	release()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return after the refresh finished")
	}

	select {
	case <-s.reg.refreshSnapshot("mydata"):
	default:
		t.Fatal("a snapshot refresh started after Close")
	}
	s.reg.refreshMu.Lock()
	running := len(s.reg.refreshing)
	s.reg.refreshMu.Unlock()
	if running != 0 {
		t.Fatalf("%d refreshes registered after Close, want 0", running)
	}
}

// nanCSV is catalogTestCSV(30) with the measure of one NY row replaced by
// NaN.
func nanCSV(t *testing.T) string {
	t.Helper()
	csv := catalogTestCSV(30)
	bad := strings.Replace(csv, "2021-03-05,NY,kings,10\n", "2021-03-05,NY,kings,NaN\n", 1)
	if bad == csv {
		t.Fatal("nanCSV: row to poison not found")
	}
	return bad
}

// TestCatalogUploadRejectsNonFiniteMeasure: a NaN measure would poison
// every γ it enters and hide the slices around it, so the upload fails
// closed with a 400 naming the line, and nothing is published.
func TestCatalogUploadRejectsNonFiniteMeasure(t *testing.T) {
	s := newCatalogServer(t, t.TempDir())
	rec := upload(t, s, catalogTestManifest, nanCSV(t), false)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("NaN upload: %d: %s", rec.Code, rec.Body.String())
	}
	// Header is line 1, day 5's first row is record 13.
	if body := rec.Body.String(); !strings.Contains(body, "line 14") || !strings.Contains(body, `\"cases\"`) {
		t.Errorf("error does not name the line and column: %s", body)
	}
	if rec := get(t, s, "/api/explain?dataset=mydata"); rec.Code != http.StatusNotFound {
		t.Errorf("rejected dataset is served: %d", rec.Code)
	}
	// An infinite measure fails the same way.
	inf := strings.Replace(catalogTestCSV(30), "2021-03-07,CA,la,8\n", "2021-03-07,CA,la,+Inf\n", 1)
	if rec := upload(t, s, catalogTestManifest, inf, false); rec.Code != http.StatusBadRequest {
		t.Fatalf("+Inf upload: %d: %s", rec.Code, rec.Body.String())
	}
}

// TestNonEncodableAnswerIs500: a dataset placed in the data directory
// without going through Create can still carry a NaN measure. Its answer
// cannot be encoded as JSON, and the server must say so with a 500
// instead of a 200 with an empty body.
func TestNonEncodableAnswerIs500(t *testing.T) {
	dir := t.TempDir()
	ds := filepath.Join(dir, "mydata")
	if err := os.MkdirAll(ds, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ds, "manifest.json"), []byte(catalogTestManifest), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ds, "data.csv"), []byte(nanCSV(t)), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newCatalogServer(t, dir)
	rec := get(t, s, "/api/slice?dataset=mydata&expr=state=NY")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("slice over a NaN series: %d: %q", rec.Code, rec.Body.String())
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || !strings.Contains(body.Error, "NaN") {
		t.Errorf("500 body = %q (%v), want a JSON error naming the NaN", rec.Body.String(), err)
	}
}
