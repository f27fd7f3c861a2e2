package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/catalog"
)

// Async job API: POST /api/jobs accepts the same query parameters as
// /api/explain, persists the job under <jobs-dir>/<id>.json, and returns
// 202 with the job ID immediately; GET /api/jobs/{id} polls the status
// and (once done) the full explain response. Jobs survive restarts —
// queued and interrupted jobs are re-enqueued on startup — and finished
// jobs are garbage-collected after Config.JobTTL. A small bounded worker
// pool runs jobs through the regular registry (patient admission: a job
// waits for a shard worker slot instead of shedding), so background work
// can never occupy more than JobWorkers slots of interactive capacity.

// jobQueueDepth bounds jobs waiting for a worker. It is deliberately
// large — jobs are cheap to hold (an ID in a channel; state lives on
// disk) — and exists only so a submission flood fails fast instead of
// accumulating without bound.
const jobQueueDepth = 1024

type jobManager struct {
	s       *Server
	store   *catalog.JobStore
	queue   chan string
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	closeMu sync.Mutex
	closed  bool
}

// newJobManager starts the worker pool and TTL sweeper, re-enqueuing
// every non-terminal job found on disk: queued jobs simply wait again,
// and jobs persisted as running were interrupted mid-compute by a crash
// or shutdown, so they restart from scratch (explains are pure —
// rerunning one is always safe).
//
//tsexplain:ctxroot job workers outlive any single request; shutdown cancels via Server.Close
func newJobManager(s *Server, store *catalog.JobStore) *jobManager {
	m := &jobManager{
		s:     s,
		store: store,
		queue: make(chan string, jobQueueDepth),
	}
	m.ctx, m.cancel = context.WithCancel(context.Background())
	if jobs, err := store.List(); err == nil {
		for _, j := range jobs {
			if j.Terminal() {
				continue
			}
			select {
			case m.queue <- j.ID:
			default: // deeper than the queue: left for a later restart
			}
		}
	}
	for i := 0; i < s.cfg.JobWorkers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	m.wg.Add(1)
	go m.sweeper()
	return m
}

// close stops the workers and sweeper. In-flight jobs are interrupted
// (their contexts cancel) and left persisted as running, which the next
// startup treats as "interrupted, re-enqueue".
func (m *jobManager) close() {
	m.closeMu.Lock()
	m.closed = true
	m.closeMu.Unlock()
	m.cancel()
	m.wg.Wait()
}

func (m *jobManager) worker() {
	defer m.wg.Done()
	for {
		select {
		case id := <-m.queue:
			m.run(id)
		case <-m.ctx.Done():
			return
		}
	}
}

// sweeper garbage-collects terminal jobs older than the TTL. The
// interval tracks the TTL (a quarter of it) but stays within [1s, 1m] so
// tests with tiny TTLs sweep promptly and long TTLs don't scan rarely
// enough to matter.
func (m *jobManager) sweeper() {
	defer m.wg.Done()
	interval := m.s.cfg.JobTTL / 4
	if interval < time.Second {
		interval = time.Second
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if n, err := m.store.Sweep(time.Now(), m.s.cfg.JobTTL); err == nil && n > 0 {
				m.s.met.jobsExpired.Add(int64(n))
			}
		case <-m.ctx.Done():
			return
		}
	}
}

// run executes one job end to end: mark running, recompute its params
// from the persisted query, explain through the registry with patient
// admission and the long job deadline, and persist the outcome. A job
// interrupted by shutdown is reverted to queued so the next startup
// re-runs it instead of reporting a spurious failure.
func (m *jobManager) run(id string) {
	j, err := m.store.Get(id)
	if err != nil || j.Terminal() {
		return // deleted or already finished; nothing to do
	}
	j.Status = catalog.JobRunning
	if err := m.store.Put(j); err != nil {
		return
	}

	res, rerr := m.compute(j.Query)
	if rerr != nil && m.ctx.Err() != nil {
		j.Status = catalog.JobQueued // interrupted by shutdown, not failed
		_ = m.store.Put(j)
		return
	}
	j.FinishedAtMs = time.Now().UnixMilli()
	if rerr != nil {
		j.Status = catalog.JobFailed
		j.Error = rerr.Error()
		m.s.met.jobsFailed.Add(1)
	} else {
		j.Status = catalog.JobDone
		j.Result = res
		m.s.met.jobsCompleted.Add(1)
	}
	_ = m.store.Put(j)
}

// compute runs the job's explain and renders the same response document
// the synchronous endpoint would have served.
func (m *jobManager) compute(query string) (json.RawMessage, error) {
	q, err := url.ParseQuery(query)
	if err != nil {
		return nil, err
	}
	p, err := m.s.paramsFromQuery(q)
	if err != nil {
		return nil, err // e.g. the dataset was deleted after submission
	}
	p.patient = true
	ctx, cancel := context.WithTimeout(m.ctx, m.s.cfg.JobTimeout)
	defer cancel()
	res, err := m.s.reg.explain(ctx, p)
	if err != nil {
		return nil, err
	}
	return json.Marshal(buildExplainResponse(p, res, false))
}

// submit validates, persists, and enqueues a new job.
func (m *jobManager) submit(query string) (*catalog.JobRecord, error) {
	m.closeMu.Lock()
	defer m.closeMu.Unlock()
	if m.closed {
		return nil, httpErrf(http.StatusServiceUnavailable, "server shutting down")
	}
	j := &catalog.JobRecord{
		ID:            newJobID(),
		Query:         query,
		Status:        catalog.JobQueued,
		SubmittedAtMs: time.Now().UnixMilli(),
	}
	if err := m.store.Put(j); err != nil {
		return nil, err
	}
	select {
	case m.queue <- j.ID:
	default:
		_ = m.store.Delete(j.ID)
		return nil, httpErrf(http.StatusTooManyRequests, "job queue full (%d pending)", jobQueueDepth)
	}
	m.s.met.jobsSubmitted.Add(1)
	return j, nil
}

// newJobID returns a fresh 16-hex-digit random job ID.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return hex.EncodeToString(b[:])
}

// jobsEnabled fails job-API requests uniformly when no jobs directory is
// configured.
func (s *Server) jobsEnabled(w http.ResponseWriter) bool {
	if s.jobs == nil {
		writeError(w, httpErrf(http.StatusNotImplemented,
			"job API disabled: start the server with a data or jobs directory"))
		return false
	}
	return true
}

// handleJobSubmit serves POST /api/jobs: the explain parameters come in
// the query string exactly as /api/explain takes them, are validated
// synchronously (bad requests fail with 400 now, not as a failed job
// later), and the job runs in the background.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	if _, err := s.parseParams(r); err != nil {
		writeError(w, err)
		return
	}
	if r.URL.Query().Get("progressive") == "1" {
		writeError(w, httpErrf(http.StatusBadRequest,
			"progressive streaming does not compose with async jobs; use GET /api/explain?progressive=1"))
		return
	}
	j, err := s.jobs.submit(r.URL.RawQuery)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Location", "/api/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, j)
}

// handleJobGet serves GET /api/jobs/{id}: the full record, including the
// explain response document once the job is done.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	j, err := s.jobs.store.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, jobErr(err))
		return
	}
	writeJSON(w, http.StatusOK, j)
}

// handleJobList serves GET /api/jobs: every stored job, oldest first,
// with result payloads elided (poll the job itself for its document).
func (s *Server) handleJobList(w http.ResponseWriter, _ *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	jobs, err := s.jobs.store.List()
	if err != nil {
		writeError(w, err)
		return
	}
	slim := make([]catalog.JobRecord, 0, len(jobs))
	for _, j := range jobs {
		c := *j
		c.Result = nil
		slim = append(slim, c)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": slim})
}

// handleJobDelete serves DELETE /api/jobs/{id}. Deleting a queued job
// cancels it effectively: the worker finds no record and skips it. A
// running job finishes its compute, and its final Put resurrects the
// record — acceptable, the sweeper reclaims it.
func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	if err := s.jobs.store.Delete(r.PathValue("id")); err != nil {
		writeError(w, jobErr(err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}

// jobErr maps store failures to HTTP statuses.
func jobErr(err error) error {
	if errors.Is(err, catalog.ErrJobNotFound) {
		return httpErrf(http.StatusNotFound, "%s", err.Error())
	}
	return err
}
