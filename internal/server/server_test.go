package server

import (
	"encoding/json"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
)

// New returns a ready-to-serve handler with default configuration.
func New() *Server { return NewWithConfig(Config{}) }

// NewWithConfig returns a ready-to-serve handler. It panics when the
// catalog data directory cannot be opened.
func NewWithConfig(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestIndexPage(t *testing.T) {
	s := New()
	rec := get(t, s, "/")
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "TSExplain") {
		t.Error("index page missing title")
	}
	if rec := get(t, s, "/nope"); rec.Code != 404 {
		t.Errorf("unknown path status = %d, want 404", rec.Code)
	}
}

func TestDatasetsEndpoint(t *testing.T) {
	s := New()
	rec := get(t, s, "/api/datasets")
	var out struct {
		Datasets []string `json:"datasets"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Datasets) != 6 {
		t.Errorf("datasets = %v", out.Datasets)
	}
}

func TestExplainEndpoint(t *testing.T) {
	s := New()
	rec := get(t, s, "/api/explain?dataset=vax-deaths")
	if rec.Code != 200 {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var out explainResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.K < 2 || len(out.Segments) != out.K {
		t.Errorf("K = %d with %d segments", out.K, len(out.Segments))
	}
	if out.Segments[0].Top[0].Predicates == "" {
		t.Error("empty explanation predicates")
	}
	// Fixed K round-trips.
	rec = get(t, s, "/api/explain?dataset=vax-deaths&k=3")
	_ = json.Unmarshal(rec.Body.Bytes(), &out)
	if out.K != 3 || out.AutoK {
		t.Errorf("fixed K: got K=%d autoK=%v", out.K, out.AutoK)
	}
}

func TestExplainCaching(t *testing.T) {
	s := New()
	get(t, s, "/api/explain?dataset=vax-deaths")
	if n := s.reg.resultEntries(); n != 1 {
		t.Fatalf("cache size = %d, want 1", n)
	}
	get(t, s, "/api/explain?dataset=vax-deaths")
	if n := s.reg.resultEntries(); n != 1 {
		t.Errorf("repeated request grew the cache (%d entries)", n)
	}
	if n := s.reg.computes.Load(); n != 1 {
		t.Errorf("computes = %d, want 1", n)
	}
	get(t, s, "/api/explain?dataset=vax-deaths&k=2")
	if n := s.reg.resultEntries(); n != 2 {
		t.Errorf("distinct params should add a cache entry (got %d)", n)
	}
	// The k=2 request must have reused the pooled engine, not built a
	// second one.
	if n := s.reg.engineEntries(); n != 1 {
		t.Errorf("engine pool size = %d, want 1", n)
	}
}

func TestDatasetAliasSharesCache(t *testing.T) {
	s := New()
	rec := get(t, s, "/api/explain?dataset=covid-total")
	if rec.Code != 200 {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var aliased explainResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &aliased); err != nil {
		t.Fatal(err)
	}
	if aliased.Dataset != "covid" {
		t.Errorf("alias reported dataset %q, want normalized \"covid\"", aliased.Dataset)
	}
	rec = get(t, s, "/api/explain?dataset=covid")
	var canonical explainResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &canonical); err != nil {
		t.Fatal(err)
	}
	if n := s.reg.resultEntries(); n != 1 {
		t.Errorf("cache size = %d, want 1 (alias must share the canonical key)", n)
	}
	if n := s.reg.computes.Load(); n != 1 {
		t.Errorf("computes = %d, want 1 (alias must not recompute)", n)
	}
	if canonical.K != aliased.K || canonical.Variance != aliased.Variance {
		t.Errorf("alias result differs: %+v vs %+v", aliased, canonical)
	}
}

func TestConcurrentColdExplainsComputeOnce(t *testing.T) {
	s := New()
	const clients = 16
	var wg sync.WaitGroup
	codes := make([]int, clients)
	bodies := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest("GET", "/api/explain?dataset=vax-deaths", nil)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			codes[i] = rec.Code
			bodies[i] = rec.Body.String()
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if codes[i] != 200 {
			t.Fatalf("client %d: status %d: %s", i, codes[i], bodies[i])
		}
		if bodies[i] != bodies[0] {
			t.Errorf("client %d got a different body", i)
		}
	}
	if n := s.reg.computes.Load(); n != 1 {
		t.Errorf("computes = %d, want 1 (thundering herd must share one explain)", n)
	}
	if n := s.reg.resultEntries(); n != 1 {
		t.Errorf("cache size = %d, want 1", n)
	}
}

func TestStreamEndpoint(t *testing.T) {
	s := New()
	rec := get(t, s, "/api/stream?dataset=stream&start=100&step=5")
	if rec.Code != 200 {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	// Initial snapshot plus ceil(20/5) updates.
	if len(lines) != 5 {
		t.Fatalf("got %d NDJSON lines, want 5: %s", len(lines), rec.Body.String())
	}
	var first, last streamUpdate
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if !first.Initial || first.N != 100 {
		t.Errorf("first line = %+v, want initial snapshot at n=100", first)
	}
	if last.Error != "" || last.N != 120 || last.K < 2 {
		t.Errorf("last line = %+v, want final update at n=120", last)
	}
	if len(last.Top) == 0 {
		t.Errorf("last update reports no explanations")
	}

	for _, path := range []string{
		"/api/stream?dataset=stream&start=1",
		"/api/stream?dataset=stream&start=999",
		"/api/stream?dataset=stream&step=0",
	} {
		if rec := get(t, s, path); rec.Code != 400 {
			t.Errorf("%s: status = %d, want 400", path, rec.Code)
		}
	}
	if rec := get(t, s, "/api/stream?dataset=bogus"); rec.Code != 404 {
		t.Errorf("unknown dataset: status = %d, want 404", rec.Code)
	}
}

func TestExplainBadParams(t *testing.T) {
	s := New()
	// Malformed parameters are 400s; unknown resources are 404s. Every
	// error path answers with the JSON error shape, never an empty 200.
	cases := []struct {
		path string
		code int
	}{
		{"/api/explain?dataset=bogus", 404},
		{"/api/explain?k=99", 400},
		{"/api/explain?k=abc", 400},
		{"/api/explain?smooth=-2", 400},
		{"/api/recommend?dataset=bogus", 404},
		{"/svg/trendlines?dataset=bogus", 404},
		{"/svg/kvariance?k=oops", 400},
		{"/api/diff?dataset=bogus", 404},
	}
	for _, tc := range cases {
		rec := get(t, s, tc.path)
		if rec.Code != tc.code {
			t.Errorf("%s: status = %d, want %d", tc.path, rec.Code, tc.code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: content type = %q, want JSON error body", tc.path, ct)
		}
		var out struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out.Error == "" {
			t.Errorf("%s: body %q is not the JSON error shape", tc.path, rec.Body.String())
		}
	}
}

func TestSVGEndpoints(t *testing.T) {
	s := New()
	for _, path := range []string{
		"/svg/trendlines?dataset=vax-deaths",
		"/svg/kvariance?dataset=vax-deaths",
	} {
		rec := get(t, s, path)
		if rec.Code != 200 {
			t.Fatalf("%s: status = %d", path, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "image/svg+xml" {
			t.Errorf("%s: content type = %q", path, ct)
		}
		if !strings.HasPrefix(rec.Body.String(), "<svg") {
			t.Errorf("%s: not SVG", path)
		}
	}
}

func TestRecommendEndpoint(t *testing.T) {
	s := New()
	rec := get(t, s, "/api/recommend?dataset=vax-deaths")
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	var out struct {
		Attributes []struct {
			Attribute string  `json:"Attribute"`
			Coverage  float64 `json:"Coverage"`
		} `json:"attributes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Attributes) != 2 {
		t.Errorf("attributes = %+v", out.Attributes)
	}
}

func TestSliceEndpoint(t *testing.T) {
	s := New()
	rec := get(t, s, "/api/slice?dataset=vax-deaths&expr=vaccinated%3DNO")
	if rec.Code != 200 {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Series    []float64 `json:"series"`
		Share     float64   `json:"shareOfTotal"`
		DrillDown []struct {
			Attribute string   `json:"attribute"`
			Children  []string `json:"children"`
		} `json:"drillDown"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Series) != 39 {
		t.Errorf("series length = %d, want 39", len(out.Series))
	}
	if out.Share <= 0.4 || out.Share >= 1 {
		t.Errorf("unvaccinated share = %g, want a majority share below 1", out.Share)
	}
	// Drill-down offered on the remaining attribute only.
	if len(out.DrillDown) != 1 || out.DrillDown[0].Attribute != "age-group" {
		t.Errorf("drill-down = %+v, want age-group", out.DrillDown)
	}
	if len(out.DrillDown[0].Children) != 3 {
		t.Errorf("age-group children = %v", out.DrillDown[0].Children)
	}

	// Root slice returns the total and both drill-down attributes.
	rec = get(t, s, "/api/slice?dataset=vax-deaths")
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Share != 1 {
		t.Errorf("root share = %g, want 1", out.Share)
	}
	if len(out.DrillDown) != 2 {
		t.Errorf("root drill-down attrs = %d, want 2", len(out.DrillDown))
	}
}

// TestSliceValueWithAmpersand slices a drill-down child whose value
// contains "&": the expression must split only where another predicate
// starts, not inside the value.
func TestSliceValueWithAmpersand(t *testing.T) {
	s := New()
	const vendor = "William Grant & Sons"
	var root struct {
		DrillDown []struct {
			Attribute string   `json:"attribute"`
			Children  []string `json:"children"`
		} `json:"drillDown"`
	}
	rec := get(t, s, "/api/slice?dataset=liquor")
	if rec.Code != 200 {
		t.Fatalf("root status = %d: %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &root); err != nil {
		t.Fatal(err)
	}
	listed := false
	for _, dd := range root.DrillDown {
		for _, c := range dd.Children {
			listed = listed || (dd.Attribute == "Vendor Name" && c == vendor)
		}
	}
	if !listed {
		t.Fatalf("root drill-down does not list Vendor Name=%s", vendor)
	}
	for _, expr := range []string{
		"Vendor Name=" + vendor,
		"Vendor Name=" + vendor + "&Pack=12",
		"Pack=12&Vendor Name=" + vendor,
	} {
		rec := get(t, s, "/api/slice?dataset=liquor&expr="+url.QueryEscape(expr))
		if rec.Code != 200 {
			t.Fatalf("%q: status = %d: %s", expr, rec.Code, rec.Body.String())
		}
		var out struct {
			Series []float64 `json:"series"`
			Share  float64   `json:"shareOfTotal"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		if len(out.Series) == 0 || out.Share <= 0 || out.Share >= 1 {
			t.Errorf("%q: %d points, share %g; want a proper sub-slice", expr, len(out.Series), out.Share)
		}
	}
}

func TestSliceEndpointErrors(t *testing.T) {
	s := New()
	cases := []struct {
		path string
		code int
	}{
		{"/api/slice?dataset=bogus", 404},
		{"/api/slice?dataset=vax-deaths&expr=oops", 400},
		{"/api/slice?dataset=vax-deaths&expr=age-group%3Dnope", 400},
		{"/api/slice?dataset=vax-deaths&expr=age-group%3D50%2B%26age-group%3D%3C30", 400},
	}
	for _, tc := range cases {
		if rec := get(t, s, tc.path); rec.Code != tc.code {
			t.Errorf("%s: status = %d, want %d (%s)", tc.path, rec.Code, tc.code, rec.Body.String())
		}
	}
}

func TestDiffEndpoint(t *testing.T) {
	s := New()
	rec := get(t, s, "/api/diff?dataset=vax-deaths&from=w25&to=w38")
	if rec.Code != 200 {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Top []struct {
			Predicates string `json:"predicates"`
			Effect     string `json:"effect"`
		} `json:"top"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Top) == 0 {
		t.Fatal("no explanations returned")
	}
	// The delta-wave rise is driven by age-group=50+.
	if !strings.Contains(out.Top[0].Predicates, "50+") || out.Top[0].Effect != "+" {
		t.Errorf("top diff explanation = %+v", out.Top[0])
	}
	// Bad ranges.
	for _, path := range []string{
		"/api/diff?dataset=vax-deaths&from=w38&to=w25",
		"/api/diff?dataset=vax-deaths&from=nope&to=w38",
	} {
		if rec := get(t, s, path); rec.Code != 400 {
			t.Errorf("%s: status = %d, want 400", path, rec.Code)
		}
	}
}
