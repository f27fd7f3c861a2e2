package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// treeDigest maps every path under root to its file content's SHA-256
// ("dir" for directories).
func treeDigest(t *testing.T, root string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			out[rel] = "dir"
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(b)
		out[rel] = hex.EncodeToString(sum[:])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestHostilePathParameters sends path traversals and malformed names
// and IDs to every route that reads one from the URL path, on a catalog
// server that holds one dataset and one finished job. No request may
// succeed, and nothing under the server's root — the data directory, its
// job store, and decoy files beside it that a traversal would reach —
// may change.
func TestHostilePathParameters(t *testing.T) {
	root := t.TempDir()
	for _, decoy := range []string{"x/data.csv", "etc/passwd"} {
		p := filepath.Join(root, decoy)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("decoy\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := newCatalogServer(t, filepath.Join(root, "data"))
	if rec := upload(t, s, catalogTestManifest, catalogTestCSV(12), true); rec.Code != 201 {
		t.Fatalf("upload: %d: %s", rec.Code, rec.Body.String())
	}
	rec := post(t, s, "/api/jobs?dataset=mydata&k=2")
	if rec.Code != 202 {
		t.Fatalf("job submit: %d: %s", rec.Code, rec.Body.String())
	}
	var job jobView
	if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
		t.Fatal(err)
	}
	if j := pollJob(t, s, job.ID); j.Status != "done" {
		t.Fatalf("job ended %q: %s", j.Status, j.Error)
	}
	before := treeDigest(t, root)

	names := []string{"..", "../x", "%2e%2e", "a%2Fb", ".x", "MYDATA", strings.Repeat("a", 65)}
	ids := []string{"..", "..%2F..%2Fetc%2Fpasswd", "-1", "0", job.ID[:15], job.ID + "0", strings.ToUpper(job.ID)}
	type probe struct{ method, path, body string }
	var probes []probe
	// A well-formed row for the stored dataset: only the name is hostile.
	row := `{"time":"2021-03-13","dims":{"state":"NY","county":"kings"},"measure":140}` + "\n"
	for _, name := range names {
		probes = append(probes,
			probe{"DELETE", "/api/datasets/" + name, ""},
			probe{"POST", "/api/datasets/" + name + "/append", row})
	}
	for _, id := range ids {
		probes = append(probes,
			probe{"GET", "/api/jobs/" + id, ""},
			probe{"DELETE", "/api/jobs/" + id, ""})
	}
	for _, p := range probes {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(p.method, p.path, strings.NewReader(p.body)))
		if rec.Code >= 200 && rec.Code < 300 {
			t.Errorf("%s %s answered %d: %s", p.method, p.path, rec.Code, rec.Body.String())
		}
	}

	if after := treeDigest(t, root); !reflect.DeepEqual(after, before) {
		t.Errorf("file tree changed under hostile paths:\nbefore %v\nafter  %v", before, after)
	}
}

// TestHostileAppendBodies sends malformed NDJSON append bodies to a
// catalog dataset that has already taken one valid append, so its live
// incremental engine exists. Every body must answer 4xx with nothing
// applied: the data directory stays byte-identical, and the next valid
// append extends the series by exactly its one new day.
func TestHostileAppendBodies(t *testing.T) {
	dir := t.TempDir()
	s := newCatalogServer(t, dir)
	if rec := upload(t, s, catalogTestManifest, catalogTestCSV(12), true); rec.Code != 201 {
		t.Fatalf("upload: %d: %s", rec.Code, rec.Body.String())
	}
	row := func(day, extra string) string {
		return `{"time":"2021-03-` + day + `","dims":{"state":"NY","county":"kings"}` + extra + `}`
	}
	if rec := appendNDJSON(t, s, "mydata", row("13", `,"measure":140`)+"\n", true); rec.Code != 200 {
		t.Fatalf("first append: %d: %s", rec.Code, rec.Body.String())
	}
	before := treeDigest(t, dir)

	bodies := []struct{ name, body string }{
		{"not JSON", "not json\n"},
		{"unknown field", row("14", `,"measure":1,"nope":2`) + "\n"},
		{"missing measure", row("14", "") + "\n"},
		{"null measure", row("14", `,"measure":null`) + "\n"},
		{"measure out of range", row("14", `,"measure":1e400`) + "\n"},
		{"time before the tail", row("05", `,"measure":1`) + "\n"},
		{"missing dimension", `{"time":"2021-03-14","dims":{"state":"NY"},"measure":1}` + "\n"},
		{"extra dimension", `{"time":"2021-03-14","dims":{"state":"NY","county":"kings","city":"nyc"},"measure":1}` + "\n"},
		{"second object on a line", row("14", `,"measure":1`) + " " + row("14", `,"measure":2`) + "\n"},
		{"junk after the object", row("14", `,"measure":1`) + " ]\n"},
		{"both measure forms", row("14", `,"measure":1,"measures":{"cases":2}`) + "\n"},
		{"unknown measures key", row("14", `,"measures":{"cases":1,"deaths":2}`) + "\n"},
		{"5 MB line", row("14", `,"measure":1,"pad":"`+strings.Repeat("x", 5<<20)+`"`) + "\n"},
		{"empty body", ""},
	}
	for _, b := range bodies {
		rec := appendNDJSON(t, s, "mydata", b.body, true)
		if rec.Code < 400 || rec.Code >= 500 {
			t.Errorf("%s: answered %d, want 4xx: %.200s", b.name, rec.Code, rec.Body.String())
		}
	}
	if after := treeDigest(t, dir); !reflect.DeepEqual(after, before) {
		t.Errorf("data directory changed under hostile append bodies:\nbefore %v\nafter  %v", before, after)
	}

	rec := appendNDJSON(t, s, "mydata", row("14", `,"measure":150`)+"\n", true)
	if rec.Code != 200 {
		t.Fatalf("valid append after the hostile ones: %d: %s", rec.Code, rec.Body.String())
	}
	var ap struct {
		Rows int `json:"rows"`
		N    int `json:"n"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ap); err != nil {
		t.Fatal(err)
	}
	if ap.Rows != 1 || ap.N != 14 {
		t.Fatalf("valid append = %+v, want 1 row over 14 days", ap)
	}
}

// TestHostileManifestUploads uploads manifests that hide data after a
// valid document, directly after it or behind padding that reaches past
// the manifest part's size limit, and one that sets the range-bin edges
// only the catalog may record. Each must answer 4xx and leave the data
// directory unchanged.
func TestHostileManifestUploads(t *testing.T) {
	dir := t.TempDir()
	s := newCatalogServer(t, dir)
	before := treeDigest(t, dir)
	// Each case names its own dataset, so one accepted upload cannot make
	// the next answer 409 for a reason of its own.
	manifest := func(name string) string {
		return `{"name":"` + name + `","timeCol":"day","dimCols":["state","county"],"measureCol":"cases"}`
	}
	for _, m := range []struct{ name, manifest string }{
		{"trailing data", manifest("trailing") + ` {"x":1}`},
		{"padded past the limit", manifest("padded") + strings.Repeat(" ", manifestLimitBytes) + `{"x":1}`},
		{"range-bin edges set", strings.TrimSuffix(manifest("edges"), "}") + `,"rangeBins":[{"column":"cases","bins":2,"edges":[50]}]}`},
	} {
		if rec := upload(t, s, m.manifest, catalogTestCSV(12), true); rec.Code < 400 || rec.Code >= 500 {
			t.Errorf("%s: answered %d, want 4xx: %s", m.name, rec.Code, rec.Body.String())
		}
	}
	if after := treeDigest(t, dir); !reflect.DeepEqual(after, before) {
		t.Errorf("data directory changed under hostile manifests:\nbefore %v\nafter  %v", before, after)
	}
}

// parseRoundStream decodes a complete progressive stream in the framing
// its Content-Type names and returns its rounds, failing the test on any
// byte that does not belong to a whole event or line.
func parseRoundStream(t *testing.T, ctx, contentType, body string) []streamedRound {
	t.Helper()
	var payloads []string
	switch contentType {
	case "text/event-stream":
		if !strings.HasSuffix(body, "\n\n") {
			t.Fatalf("%s: SSE body does not end with a blank line: %.200q", ctx, body)
		}
		for _, event := range strings.Split(strings.TrimSuffix(body, "\n\n"), "\n\n") {
			lines := strings.Split(event, "\n")
			if len(lines) != 2 || lines[0] != "event: round" || !strings.HasPrefix(lines[1], "data: ") {
				t.Fatalf("%s: malformed SSE event %.200q", ctx, event)
			}
			payloads = append(payloads, strings.TrimPrefix(lines[1], "data: "))
		}
	case "application/x-ndjson":
		if !strings.HasSuffix(body, "\n") {
			t.Fatalf("%s: NDJSON body does not end with a newline: %.200q", ctx, body)
		}
		payloads = strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	default:
		t.Fatalf("%s: Content-Type %q, want text/event-stream or application/x-ndjson", ctx, contentType)
	}
	rounds := make([]streamedRound, len(payloads))
	for i, p := range payloads {
		if err := json.Unmarshal([]byte(p), &rounds[i]); err != nil || rounds[i].Round != i+1 {
			t.Fatalf("%s: payload %d is not round %d (%v): %.200q", ctx, i+1, i+1, err, p)
		}
	}
	return rounds
}

// TestHostileProgressiveHeaders sends progressive explains with hostile
// Accept and Last-Event-ID headers to a catalog dataset and a built-in
// one. No request may answer 5xx; a 200 must carry exactly one of the two
// stream types and a body that parses completely in that framing and ends
// in exactly one final round; a 4xx must carry a JSON error; and the data
// directory must not change.
func TestHostileProgressiveHeaders(t *testing.T) {
	dir := t.TempDir()
	s := newCatalogServer(t, dir)
	if rec := upload(t, s, catalogTestManifest, catalogTestCSV(12), true); rec.Code != 201 {
		t.Fatalf("upload: %d: %s", rec.Code, rec.Body.String())
	}
	before := treeDigest(t, dir)

	const sse = "text/event-stream"
	cases := []struct {
		name   string
		query  string
		header map[string][]string
	}{
		{"64 KiB Accept", "k=2", map[string][]string{"Accept": {sse + ", " + strings.Repeat("x", 64<<10)}}},
		{"64 KiB Accept without SSE", "k=2", map[string][]string{"Accept": {strings.Repeat("text/", 64<<10/5)}}},
		{"Accept with CR", "k=2", map[string][]string{"Accept": {sse + "\r"}}},
		{"Accept with LF", "k=2", map[string][]string{"Accept": {"text/\n" + sse}}},
		{"Accept with NUL", "k=2", map[string][]string{"Accept": {sse + "\x00"}}},
		{"Accept split by NUL", "k=2", map[string][]string{"Accept": {"text/event\x00-stream"}}},
		{"SSE then NDJSON Accept", "k=2", map[string][]string{"Accept": {sse, "application/x-ndjson"}}},
		{"NDJSON then SSE Accept", "k=2", map[string][]string{"Accept": {"application/x-ndjson", sse}}},
		{"any Accept", "k=2", map[string][]string{"Accept": {"*/*"}}},
		{"huge Last-Event-ID", "k=2", map[string][]string{"Accept": {sse}, "Last-Event-Id": {strings.Repeat("9", 4096)}}},
		{"negative Last-Event-ID", "k=2", map[string][]string{"Accept": {sse}, "Last-Event-Id": {"-1"}}},
		{"SSE Accept with a bad k", "k=-3", map[string][]string{"Accept": {sse}}},
		{"SSE Accept with a non-numeric k", "k=two", map[string][]string{"Accept": {sse}}},
	}
	for _, dataset := range []string{"mydata", "vax-deaths"} {
		for _, c := range cases {
			ctx := dataset + "/" + c.name
			req := httptest.NewRequest("GET", "/api/explain?dataset="+dataset+"&progressive=1&"+c.query, nil)
			for k, vs := range c.header {
				req.Header[k] = vs
			}
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			body := rec.Body.String()
			switch {
			case rec.Code >= 500:
				t.Errorf("%s: answered %d: %.200s", ctx, rec.Code, body)
			case rec.Code == 200:
				rounds := parseRoundStream(t, ctx, rec.Header().Get("Content-Type"), body)
				for i, r := range rounds {
					if r.Final != (i == len(rounds)-1) {
						t.Errorf("%s: round %d of %d has final = %v; want exactly one final round, last", ctx, i+1, len(rounds), r.Final)
					}
				}
			case rec.Code >= 400:
				var e struct {
					Error string `json:"error"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
					t.Errorf("%s: answered %d without a JSON error body: %.200s", ctx, rec.Code, body)
				}
			default:
				t.Errorf("%s: answered %d, want 200 or 4xx: %.200s", ctx, rec.Code, body)
			}
		}
	}
	if after := treeDigest(t, dir); !reflect.DeepEqual(after, before) {
		t.Errorf("data directory changed under hostile progressive headers:\nbefore %v\nafter  %v", before, after)
	}
}
