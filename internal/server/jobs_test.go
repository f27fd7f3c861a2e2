package server

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/catalog"
)

// jobView decodes job-API responses in tests.
type jobView struct {
	ID            string          `json:"id"`
	Query         string          `json:"query"`
	Status        string          `json:"status"`
	Error         string          `json:"error"`
	SubmittedAtMs int64           `json:"submittedAtMs"`
	FinishedAtMs  int64           `json:"finishedAtMs"`
	Result        json.RawMessage `json:"result"`
}

func jobsTestConfig(t *testing.T) Config {
	t.Helper()
	cfg := testConfig()
	cfg.JobsDir = t.TempDir()
	cfg.JobWorkers = 1
	return cfg
}

func post(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", path, nil))
	return rec
}

// pollJob polls GET /api/jobs/{id} until the job reaches a terminal
// state.
func pollJob(t *testing.T, s *Server, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		rec := get(t, s, "/api/jobs/"+id)
		if rec.Code != 200 {
			t.Fatalf("poll status = %d (%s)", rec.Code, rec.Body.String())
		}
		var j jobView
		if err := json.Unmarshal(rec.Body.Bytes(), &j); err != nil {
			t.Fatal(err)
		}
		if j.Status == catalog.JobDone || j.Status == catalog.JobFailed {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, j.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobLifecycle walks the whole async path: submit returns 202 with
// an ID immediately, polling reaches done, the persisted result matches
// the synchronous explain, and delete removes the record.
func TestJobLifecycle(t *testing.T) {
	s := NewWithConfig(jobsTestConfig(t))
	defer s.Close()

	rec := post(t, s, "/api/jobs?dataset=vax-deaths&k=2")
	if rec.Code != 202 {
		t.Fatalf("submit status = %d (%s)", rec.Code, rec.Body.String())
	}
	var j jobView
	if err := json.Unmarshal(rec.Body.Bytes(), &j); err != nil {
		t.Fatal(err)
	}
	if !catalog.ValidJobID(j.ID) {
		t.Fatalf("submit returned invalid id %q", j.ID)
	}
	if j.Status != catalog.JobQueued || j.Result != nil {
		t.Errorf("fresh job = %+v, want queued with no result", j)
	}
	if loc := rec.Header().Get("Location"); loc != "/api/jobs/"+j.ID {
		t.Errorf("Location = %q, want /api/jobs/%s", loc, j.ID)
	}

	done := pollJob(t, s, j.ID)
	if done.Status != catalog.JobDone {
		t.Fatalf("job finished %q (error %q), want done", done.Status, done.Error)
	}
	if done.FinishedAtMs == 0 || done.Result == nil {
		t.Fatalf("done job missing finish time or result: %+v", done)
	}

	// The job result is the same document the synchronous endpoint
	// serves (modulo per-run latency timings).
	sync := get(t, s, "/api/explain?dataset=vax-deaths&k=2")
	if sync.Code != 200 {
		t.Fatalf("sync explain status = %d", sync.Code)
	}
	type doc struct {
		Dataset  string  `json:"dataset"`
		Mode     string  `json:"mode"`
		K        int     `json:"k"`
		Variance float64 `json:"totalVariance"`
		Segments any     `json:"segments"`
	}
	var jobDoc, syncDoc doc
	if err := json.Unmarshal(done.Result, &jobDoc); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(sync.Body.Bytes(), &syncDoc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(jobDoc, syncDoc) {
		t.Errorf("job result differs from synchronous explain:\njob:  %+v\nsync: %+v", jobDoc, syncDoc)
	}

	// The list view carries the job without its (possibly large) result.
	rec = get(t, s, "/api/jobs")
	var list struct {
		Jobs []jobView `json:"jobs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != j.ID || list.Jobs[0].Result != nil {
		t.Errorf("job list = %+v, want the one job, result elided", list.Jobs)
	}

	// Delete, then the job is gone.
	delRec := httptest.NewRecorder()
	s.ServeHTTP(delRec, httptest.NewRequest("DELETE", "/api/jobs/"+j.ID, nil))
	if delRec.Code != 200 {
		t.Fatalf("delete status = %d", delRec.Code)
	}
	if rec := get(t, s, "/api/jobs/"+j.ID); rec.Code != 404 {
		t.Errorf("get after delete = %d, want 404", rec.Code)
	}
}

// TestJobSubmitValidation: malformed submissions fail synchronously with
// the normal error envelope instead of becoming failed jobs.
func TestJobSubmitValidation(t *testing.T) {
	s := NewWithConfig(jobsTestConfig(t))
	defer s.Close()
	for path, want := range map[string]int{
		"/api/jobs?dataset=vax-deaths&k=999":          400,
		"/api/jobs?dataset=no-such-dataset":           404,
		"/api/jobs?dataset=vax-deaths&progressive=1":  400,
		"/api/jobs?dataset=vax-deaths&epsilon=0.1":    400, // epsilon requires mode=approx
		"/api/jobs?dataset=vax-deaths&mode=bogus":     400,
		"/api/jobs?dataset=vax-deaths&mode=approx":    202,
		"/api/jobs?dataset=covid-total&k=3&smooth=14": 202,
	} {
		if rec := post(t, s, path); rec.Code != want {
			t.Errorf("POST %s = %d, want %d (%s)", path, rec.Code, want, rec.Body.String())
		}
	}
}

// TestJobAPIDisabled: without a jobs (or data) directory the endpoints
// answer 501, not 404 — the routes exist, the feature is off.
func TestJobAPIDisabled(t *testing.T) {
	s := NewWithConfig(testConfig())
	if rec := post(t, s, "/api/jobs?dataset=vax-deaths"); rec.Code != 501 {
		t.Errorf("submit with jobs disabled = %d, want 501", rec.Code)
	}
	if rec := get(t, s, "/api/jobs"); rec.Code != 501 {
		t.Errorf("list with jobs disabled = %d, want 501", rec.Code)
	}
}

// TestJobSurvivesRestart: a job persisted as queued (or interrupted as
// running) by a previous process is picked up and completed by a fresh
// server pointed at the same directory.
func TestJobSurvivesRestart(t *testing.T) {
	cfg := jobsTestConfig(t)
	store, err := catalog.OpenJobStore(cfg.JobsDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []*catalog.JobRecord{
		{ID: "00000000000000aa", Query: "dataset=vax-deaths&k=2", Status: catalog.JobQueued, SubmittedAtMs: 1},
		// Persisted as running: the previous process died mid-compute.
		{ID: "00000000000000bb", Query: "dataset=vax-deaths&k=3", Status: catalog.JobRunning, SubmittedAtMs: 2},
	} {
		if err := store.Put(j); err != nil {
			t.Fatal(err)
		}
	}

	s := NewWithConfig(cfg) // "restart"
	defer s.Close()
	for _, id := range []string{"00000000000000aa", "00000000000000bb"} {
		if j := pollJob(t, s, id); j.Status != catalog.JobDone {
			t.Errorf("restarted job %s finished %q (error %q), want done", id, j.Status, j.Error)
		}
	}
}

// TestJobTTLGC: finished jobs disappear after the TTL via the sweeper.
func TestJobTTLGC(t *testing.T) {
	cfg := jobsTestConfig(t)
	cfg.JobTTL = 50 * time.Millisecond // sweeper clamps its interval to 1s
	s := NewWithConfig(cfg)
	defer s.Close()

	rec := post(t, s, "/api/jobs?dataset=vax-deaths&k=2")
	if rec.Code != 202 {
		t.Fatalf("submit status = %d", rec.Code)
	}
	var j jobView
	if err := json.Unmarshal(rec.Body.Bytes(), &j); err != nil {
		t.Fatal(err)
	}
	pollJob(t, s, j.ID)

	// The sweeper deletes the job's file before it counts the expiry, so
	// the counter is polled under the same deadline as the 404.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if rec := get(t, s, "/api/jobs/"+j.ID); rec.Code == 404 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("finished job never garbage-collected past its TTL")
		}
		time.Sleep(20 * time.Millisecond)
	}
	for s.met.jobsExpired.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("jobs expired counter = %d after the job's 404, want >= 1", s.met.jobsExpired.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
