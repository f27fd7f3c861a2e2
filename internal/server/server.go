// Package server exposes TSExplain over HTTP, grown from the shape of
// the paper's interactive demo (SIGMOD 2021 companion) into a production
// serving layer: a JSON API for explaining the built-in and
// catalog-uploaded datasets with adjustable K / smoothing / optimization
// toggles, SVG endpoints for the Figure 2 trendline and the K-Variance
// curve, a self-contained HTML page that drives them, and a dataset
// admin API (upload CSV + manifest, append NDJSON deltas through the
// streaming ingestion path, delete) — all served through a sharded
// dataset registry with lazy loading and warm-restart snapshot restores,
// per-shard bounded worker pools with 429/503 back-pressure, per-request
// deadlines that the engine observes, and a dependency-free Prometheus
// /metrics endpoint.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/render"
)

// Config tunes the serving layer. The zero value of every field selects
// a production-ready default; negative QueueDepth disables queueing
// entirely (requests are rejected the moment every worker is busy).
type Config struct {
	// Shards is the number of registry shards. Engines pool inside the
	// shard owning their (dataset, smoothing, optimization) key, so
	// requests for different shards share no lock. Default 4.
	Shards int
	// WorkersPerShard bounds concurrently computing requests per shard.
	// Default: GOMAXPROCS spread across the shards, at least 1.
	WorkersPerShard int
	// QueueDepth bounds requests waiting for a worker slot per shard;
	// beyond it requests are shed with 429. Default 64; negative means 0.
	QueueDepth int
	// RequestTimeout is the per-request deadline. The engine observes the
	// deadline mid-compute: an expired request aborts its explain instead
	// of running to completion. Default 30s.
	RequestTimeout time.Duration
	// MemoryBudgetBytes bounds the estimated footprint of pooled engines
	// (split across shards); cold engines are LRU-evicted beyond it, but
	// never an engine with in-flight requests. Default 1 GiB.
	MemoryBudgetBytes int64
	// ResultCacheSize bounds cached explain results (split across
	// shards). Default 256.
	ResultCacheSize int
	// AccessLog, when non-nil, receives one structured (JSON) log line
	// per request: endpoint, status, latency. Nil disables logging.
	AccessLog io.Writer
	// DataDir, when non-empty, enables the on-disk dataset catalog: the
	// directory is scanned for uploaded datasets at startup, and the
	// admin endpoints (POST /api/datasets, DELETE /api/datasets/{name},
	// POST /api/datasets/{name}/append) operate on it. Empty serves the
	// built-in datasets only.
	DataDir string
	// DisableSnapshots turns off the warm-restart snapshot path for
	// catalog datasets: no snapshots are written or read, and every cold
	// load parses the CSV and rebuilds the candidate universe. The
	// default (false) restores from snapshots when they are valid.
	DisableSnapshots bool
	// JobsDir, when non-empty, enables the async job API (POST /api/jobs
	// and friends) persisting jobs there. Empty defaults to
	// <DataDir>/jobs when DataDir is set; with neither, the job API is
	// disabled.
	JobsDir string
	// JobTTL is how long finished jobs (and their results) stay on disk
	// before the sweeper garbage-collects them. Default 1h.
	JobTTL time.Duration
	// JobWorkers bounds concurrently running async jobs. Each running job
	// still draws a regular shard worker slot (patiently — jobs queue
	// rather than shed), so this caps how much background work can
	// compete with interactive traffic. Default 2.
	JobWorkers int
	// JobTimeout is the per-job compute deadline, deliberately far above
	// RequestTimeout: jobs exist for explains too slow for a synchronous
	// request. Default 5m.
	JobTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.WorkersPerShard <= 0 {
		c.WorkersPerShard = (runtime.GOMAXPROCS(0) + c.Shards - 1) / c.Shards
		if c.WorkersPerShard < 1 {
			c.WorkersPerShard = 1
		}
	}
	switch {
	case c.QueueDepth < 0:
		c.QueueDepth = 0
	case c.QueueDepth == 0:
		c.QueueDepth = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MemoryBudgetBytes <= 0 {
		c.MemoryBudgetBytes = 1 << 30
	}
	if c.ResultCacheSize <= 0 {
		c.ResultCacheSize = 256
	}
	if c.JobsDir == "" && c.DataDir != "" {
		c.JobsDir = filepath.Join(c.DataDir, catalog.JobsDirName)
	}
	if c.JobTTL <= 0 {
		c.JobTTL = time.Hour
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = 2
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	return c
}

// Server handles the demo endpoints. Results are cached per parameter
// combination (bounded LRU, sharded) so repeated requests are instant,
// mirroring the interactivity requirement of Section 1 (challenge b);
// concurrent cold requests for the same key are deduplicated
// singleflight-style so a thundering herd runs one explain, not N; and
// engines are pooled per (dataset, smoothing, optimization) so requests
// that differ only in K reuse the expensive universe and per-segment
// explanation cache.
type Server struct {
	mux    *http.ServeMux
	cfg    Config
	met    *metrics
	reg    *registry
	jobs   *jobManager // nil when the job API is disabled
	logger *slog.Logger
}

// New returns a ready-to-serve handler with default configuration.
func New() *Server { return NewWithConfig(Config{}) }

// NewWithConfig returns a ready-to-serve handler. It panics when the
// catalog data directory cannot be opened; use Open where that failure
// should be handled instead (the commands do).
func NewWithConfig(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open returns a ready-to-serve handler, surfacing catalog
// initialization failures (unreadable data directory, invalid manifest,
// alias collisions between stored datasets).
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		mux: http.NewServeMux(),
		cfg: cfg,
		met: newMetrics(),
	}
	var cat *catalog.Catalog
	if cfg.DataDir != "" {
		var err error
		if cat, err = catalog.Open(cfg.DataDir); err != nil {
			return nil, err
		}
	}
	s.reg = newRegistry(cfg, s.met, cat)
	if cfg.AccessLog != nil {
		s.logger = slog.New(slog.NewJSONHandler(cfg.AccessLog, nil))
	}
	s.handle("/", s.handleIndex)
	s.handle("GET /api/datasets", s.handleDatasets)
	s.handle("POST /api/datasets", s.handleDatasetUpload)
	s.handle("DELETE /api/datasets/{name}", s.handleDatasetDelete)
	s.handle("POST /api/datasets/{name}/append", s.handleDatasetAppend)
	s.handle("/api/explain", s.handleExplain)
	s.handle("POST /api/jobs", s.handleJobSubmit)
	s.handle("GET /api/jobs", s.handleJobList)
	s.handle("GET /api/jobs/{id}", s.handleJobGet)
	s.handle("DELETE /api/jobs/{id}", s.handleJobDelete)
	s.handle("/api/recommend", s.handleRecommend)
	s.handle("/api/slice", s.handleSlice)
	s.handle("/api/diff", s.handleDiff)
	s.handle("/api/stream", s.handleStream)
	s.handle("/svg/trendlines", s.handleTrendlines)
	s.handle("/svg/kvariance", s.handleKVariance)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	if cfg.JobsDir != "" {
		store, err := catalog.OpenJobStore(cfg.JobsDir)
		if err != nil {
			return nil, err
		}
		s.jobs = newJobManager(s, store)
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops the async-job workers, the TTL sweeper and the background
// snapshot refreshes, waiting for any in-flight job to finish persisting
// its state and for any running refresh to finish its save. The HTTP
// handlers stay usable (job submissions after Close fail with 503, and
// uploads and appends no longer refresh snapshots); call it when the
// process is shutting down.
func (s *Server) Close() {
	if s.jobs != nil {
		s.jobs.close()
	}
	s.reg.close()
}

// handle registers an instrumented endpoint: per-request deadline,
// status/latency metrics, and an access-log line. /metrics itself stays
// uninstrumented so scrapes don't pollute the request counters.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r.WithContext(ctx))
		elapsed := time.Since(start)
		// Shed accounting is centralized here, on the final status: an
		// overloaded request that was rescued by the degraded lane ends
		// 200 and counts as degraded (in explainDegradable), not shed.
		switch sw.status() {
		case http.StatusTooManyRequests:
			s.met.shedQueueFull.Add(1)
		case http.StatusServiceUnavailable:
			s.met.shedDeadline.Add(1)
		}
		s.met.observe(pattern, sw.status(), elapsed.Seconds())
		if s.logger != nil {
			s.logger.LogAttrs(ctx, slog.LevelInfo, "request",
				slog.String("method", r.Method),
				slog.String("endpoint", pattern),
				slog.String("query", r.URL.RawQuery),
				slog.Int("status", sw.status()),
				slog.Float64("ms", ms(elapsed)),
			)
		}
	})
}

// statusWriter captures the response code for metrics and logs.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so streaming endpoints keep
// working through the instrumentation wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	// Render into a buffer first: write holds the metrics mutex, and a
	// slow scraper must not be able to stall it (and with it every
	// request's metrics.observe) on a blocked TCP write.
	var buf bytes.Buffer
	s.met.write(&buf, s.reg.gauges())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
}

// statusErr carries the HTTP status a failure should map to.
type statusErr struct {
	code int
	err  error
}

func (e *statusErr) Error() string { return e.err.Error() }
func (e *statusErr) Unwrap() error { return e.err }

func httpErrf(code int, format string, args ...any) error {
	return &statusErr{code: code, err: fmt.Errorf(format, args...)}
}

// errorCode normalizes any serving-path failure to its HTTP status:
// malformed input 400, unknown resources 404, queue-full 429, expired
// deadlines and cancellations 503, everything else 500.
func errorCode(err error) int {
	var se *statusErr
	switch {
	case errors.As(err, &se):
		return se.code
	case errors.Is(err, errQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// writeError emits the normalized JSON error shape on every failure path
// (no handler returns 200 with an empty body on bad input).
func writeError(w http.ResponseWriter, err error) {
	code := errorCode(err)
	if code == http.StatusTooManyRequests {
		// Derive Retry-After from the shard's observed service time when
		// the shed carried one (see shard.retryAfterSeconds); a blind
		// constant teaches well-behaved clients to hammer an overloaded
		// server once a second regardless of how deep the queue is.
		retry := 1
		var oe *overloadedError
		if errors.As(err, &oe) && oe.retryAfter > 0 {
			retry = oe.retryAfter
		}
		w.Header().Set("Retry-After", strconv.Itoa(retry))
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// httpError keeps the legacy explicit-status shape used by handlers that
// classify their own errors.
func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// writeJSON answers v as JSON with the given status. It encodes into a
// buffer first, so a value JSON cannot carry (a NaN or ±Inf that reached
// a response) answers 500 naming the encoder's error instead of a 2xx
// with a truncated or empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		// An error string always encodes, so this recursion ends.
		writeJSON(w, http.StatusInternalServerError,
			map[string]string{"error": "encoding response: " + err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes()) // a failed write means the client left; nothing to answer
}

// builtinNames lists the compiled-in demo datasets.
var builtinNames = []string{"covid", "covid-daily", "sp500", "liquor", "vax-deaths", "stream"}

// builtinAliases maps alternative request names for built-in datasets to
// their canonical name, so every alias shares one cache key and one
// pooled engine ("covid-total" used to be cached — and computed —
// separately from "covid"). Catalog datasets declare their aliases in
// their manifests instead of here; both kinds resolve through
// Server.resolveDataset before any cache key is formed.
var builtinAliases = map[string]string{"covid-total": "covid"}

func isBuiltinDataset(name string) bool {
	for _, n := range builtinNames {
		if n == name {
			return true
		}
	}
	return false
}

// isReservedDatasetName reports whether a catalog upload may not claim
// the name (built-in names and their aliases stay routable to the
// built-ins).
func isReservedDatasetName(name string) bool {
	if isBuiltinDataset(name) {
		return true
	}
	_, ok := builtinAliases[name]
	return ok
}

// resolveDataset canonicalizes a request's dataset parameter: the empty
// default, built-in aliases, built-in names, then catalog names and
// manifest-declared aliases. The canonical name is what every cache key,
// engine-pool key, and registry lookup uses, so an alias and its target
// always share one engine and one cached result.
func (s *Server) resolveDataset(raw string) (string, error) {
	if raw == "" {
		return "covid", nil
	}
	if canon, ok := builtinAliases[raw]; ok {
		return canon, nil
	}
	if isBuiltinDataset(raw) {
		return raw, nil
	}
	if s.reg.cat != nil {
		if canon, ok := s.reg.cat.Resolve(raw); ok {
			return canon, nil
		}
	}
	return "", httpErrf(http.StatusNotFound, "unknown dataset %q", raw)
}

func demoDataset(name string) (*datasets.Dataset, error) {
	switch name {
	case "covid":
		return datasets.CovidTotal(), nil
	case "covid-daily":
		return datasets.CovidDaily(), nil
	case "sp500":
		return datasets.SP500(), nil
	case "liquor":
		return datasets.Liquor(), nil
	case "vax-deaths":
		return datasets.VaxDeaths(), nil
	case "stream":
		return datasets.Stream(datasets.StreamDays), nil
	default:
		return nil, httpErrf(http.StatusNotFound, "unknown dataset %q", name)
	}
}

// params decodes the shared query parameters. dataset is always in
// canonical (alias-resolved) form.
type params struct {
	dataset string
	k       int
	smooth  int
	vanilla bool
	// approx selects the anytime approximate explanation path
	// (?mode=approx); epsilon is the requested per-segment error target
	// (0: the dataset's manifest default, falling back to 0.05).
	approx  bool
	epsilon float64
	// deg marks the degraded overload lane: never parsed from a query,
	// only set by degraded() when a handler retries an overloaded
	// approx-eligible request with a coarser epsilon on the separate
	// degraded worker pool.
	deg bool
	// patient marks async-job computes: never parsed from a query, only
	// set by the job worker. Patient requests wait for a worker slot
	// instead of shedding on queue depth; it does not affect cache keys
	// (the computed result is identical to the synchronous one).
	patient bool
	// admitGrace, when positive, bounds how long this request waits for
	// admission (engine lock, worker slot, or a deduped in-flight
	// compute) before the registry reports the wait as overload. Never
	// parsed from a query and not part of any cache key; set by the
	// degradable handlers so "deadline near" turns into a degraded answer
	// instead of a long queue wait.
	admitGrace time.Duration
}

// degradedEpsilon is the error target the server picks when it degrades
// an overloaded request instead of shedding it: coarse enough that the
// first anytime round usually satisfies it, honest enough to be useful.
const degradedEpsilon = 0.25

// degradable reports whether overload may serve this request a degraded
// bounded answer instead of a 429/503: the optimized path is required
// (vanilla engines have no candidate ranking to prune), and a request
// already on the degraded lane has nothing further to fall back to.
func (p params) degradable() bool { return !p.vanilla && !p.deg }

// degraded returns the request's degraded-lane twin: approximate mode at
// the server-picked coarse epsilon, keyed (and admitted) separately from
// normal traffic.
func (p params) degraded() params {
	p.deg = true
	p.approx = true
	p.epsilon = degradedEpsilon
	// The degraded lane is the last resort: it waits patiently for its
	// (small) pool rather than racing a grace timer it has no fallback
	// for.
	p.admitGrace = 0
	return p
}

func (s *Server) parseParams(r *http.Request) (params, error) {
	return s.paramsFromQuery(r.URL.Query())
}

// paramsFromQuery decodes the shared explain parameters from raw query
// values. It exists apart from parseParams because async-job workers
// re-parse a job's persisted query string long after its submitting
// request is gone.
func (s *Server) paramsFromQuery(q url.Values) (params, error) {
	var p params
	var err error
	if p.dataset, err = s.resolveDataset(q.Get("dataset")); err != nil {
		return p, err
	}
	if v := q.Get("k"); v != "" {
		if p.k, err = strconv.Atoi(v); err != nil || p.k < 0 || p.k > 20 {
			return p, httpErrf(http.StatusBadRequest, "bad k %q (want 0..20)", v)
		}
	}
	if v := q.Get("smooth"); v != "" {
		if p.smooth, err = strconv.Atoi(v); err != nil || p.smooth < 0 || p.smooth > 60 {
			return p, httpErrf(http.StatusBadRequest, "bad smooth %q (want 0..60)", v)
		}
	}
	p.vanilla = q.Get("vanilla") == "1"
	switch v := q.Get("mode"); v {
	case "", "exact":
	case "approx":
		p.approx = true
	default:
		return p, httpErrf(http.StatusBadRequest, "bad mode %q (want exact or approx)", v)
	}
	if v := q.Get("epsilon"); v != "" {
		if !p.approx {
			return p, httpErrf(http.StatusBadRequest, "epsilon requires mode=approx")
		}
		// The inverted comparison also rejects NaN, which would otherwise
		// slip past a `<= 0 || > 0.5` pair and never satisfy the
		// refinement loop's convergence test.
		if p.epsilon, err = strconv.ParseFloat(v, 64); err != nil || !(p.epsilon > 0 && p.epsilon <= 0.5) {
			return p, httpErrf(http.StatusBadRequest, "bad epsilon %q (want 0 < epsilon <= 0.5)", v)
		}
	}
	return p, nil
}

// mode names the explanation mode for responses.
func (p params) mode() string {
	if p.approx {
		return "approx"
	}
	return "exact"
}

// modeKey renders the cache-key component of the explanation mode: the
// approximate path and every distinct requested epsilon get their own
// cached results and pooled engines (an approx engine's per-segment
// cache is solved under its pruned candidate set and must never serve
// exact traffic, and vice versa; epsilon 0 — "use the dataset default" —
// keys separately from any explicit value). The degraded lane keys
// separately again, so its engines and cached coarse results never mix
// with — or wait behind — normal traffic's.
func (p params) modeKey() string {
	if p.deg {
		return "deg"
	}
	if !p.approx {
		return "exact"
	}
	return fmt.Sprintf("approx:%g", p.epsilon)
}

func (p params) key() string {
	return fmt.Sprintf("%s|%d|%d|%v|%s", p.dataset, p.k, p.smooth, p.vanilla, p.modeKey())
}

// engineKey identifies the pooled engine: everything but K, which only
// steers segmentation and is overridden per explain call.
func (p params) engineKey() string {
	return fmt.Sprintf("%s|%d|%v|%s", p.dataset, p.smooth, p.vanilla, p.modeKey())
}

// options assembles the engine options for the request (K excluded; it is
// passed to ExplainWithK so one engine serves every K).
func (p params) options(d *datasets.Dataset) core.Options {
	var opts core.Options
	if !p.vanilla {
		opts = core.DefaultOptions()
	}
	opts.MaxOrder = d.MaxOrder
	opts.SmoothWindow = d.SmoothWindow
	if p.smooth > 0 {
		opts.SmoothWindow = p.smooth
	}
	if p.approx {
		eps := p.epsilon
		if eps == 0 {
			eps = d.ApproxEpsilon // 0 falls through to the engine default
		}
		opts.Approx = core.ApproxOptions{
			Enabled:       true,
			MaxCandidates: d.ApproxMaxCandidates,
			Epsilon:       eps,
		}
		if p.deg {
			// The degraded lane trades accuracy for certainty of an
			// answer: coarse target, and a refinement time budget well
			// inside the lane's short compute deadline.
			opts.Approx.TimeBudget = degradedComputeTimeout / 4
		}
	}
	return opts
}

func (s *Server) handleDatasets(w http.ResponseWriter, _ *http.Request) {
	names := append([]string(nil), builtinNames...)
	catalogNames := []string{}
	if s.reg.cat != nil {
		catalogNames = s.reg.cat.Names()
		names = append(names, catalogNames...)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"datasets": names,
		"builtin":  builtinNames,
		"catalog":  catalogNames,
	})
}

// explainResponse is the JSON shape of /api/explain.
type explainResponse struct {
	Dataset string `json:"dataset"`
	Mode    string `json:"mode"`
	K       int    `json:"k"`
	AutoK   bool   `json:"autoK"`
	// Degraded marks an answer served from the degraded overload lane
	// (coarser epsilon, bound reported in approx.maxErrBound) instead of
	// a 429/503 shed; Truncated is the response-level flag for any answer
	// that stopped short of its requested accuracy — degraded-lane
	// answers and refinement runs cut off by a deadline or time budget.
	Degraded  bool             `json:"degraded,omitempty"`
	Truncated bool             `json:"truncated,omitempty"`
	Variance  float64          `json:"totalVariance"`
	Latency   latencyBreakdown `json:"latencyMs"`
	Approx    *core.ApproxInfo `json:"approx,omitempty"`
	Segments  []segmentJSON    `json:"segments"`
}

type latencyBreakdown struct {
	Precompute   float64 `json:"precompute"`
	Cascading    float64 `json:"cascading"`
	Segmentation float64 `json:"segmentation"`
}

type segmentJSON struct {
	Start string     `json:"start"`
	End   string     `json:"end"`
	Top   []explJSON `json:"top"`
	// Approximate-mode extras: the reported relative attribution-error
	// bound and the exact residual of everything outside Top.
	ErrBound float64   `json:"errBound,omitempty"`
	Other    *explJSON `json:"other,omitempty"`
}

type explJSON struct {
	Predicates string  `json:"predicates"`
	Effect     string  `json:"effect"`
	Gamma      float64 `json:"gamma"`
	// Path is the hierarchy drill-down path of the explanation's deepest
	// taxonomy predicate, coarse to fine (e.g. ["TX", "Houston"]); only
	// present for datasets that declare hierarchies.
	Path []string `json:"path,omitempty"`
}

// overloadError reports whether an explain failure is an overload signal
// the degraded lane can absorb: a full admission queue, or a deadline /
// cancellation that expired the attempt.
func overloadError(err error) bool {
	return errors.Is(err, errQueueFull) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled)
}

// explainDegradable serves one explain with the degrade-never-shed
// contract: the normal attempt first; if it fails on overload and the
// request is approx-eligible (and the client is still connected), retry
// once on the degraded lane — separate worker pool, coarse epsilon,
// short deadline — and flag the answer degraded. Only non-degradable
// requests (vanilla engines) still surface 429/503.
func (s *Server) explainDegradable(r *http.Request, p params) (res *core.Result, degraded bool, err error) {
	ctx := r.Context()
	if p.degradable() {
		// Deadline-near trigger: cap how long the normal attempt may sit
		// in admission waits. A request that cannot start promptly
		// degrades now, with most of its deadline still ahead of it,
		// instead of shedding 503 after waiting the deadline out.
		p.admitGrace = degradeAfterWait
	}
	res, err = s.reg.explain(ctx, p)
	if err == nil || !p.degradable() || !overloadError(err) {
		return res, false, err
	}
	// The server-side request timeout counts as overload to degrade
	// through; an actual client hang-up does not — nobody is left to
	// read the degraded answer.
	if errors.Is(context.Cause(ctx), context.Canceled) {
		return nil, false, err
	}
	if errors.Is(err, errQueueFull) {
		s.met.degradedQueueFull.Add(1)
	} else {
		s.met.degradedDeadline.Add(1)
	}
	// Detach from the (possibly already expired) request deadline: the
	// client is still waiting on the connection, and each degraded
	// compute is separately capped at degradedComputeTimeout by the
	// registry. The window here bounds compute PLUS the wait for a
	// degraded-lane slot — a whole overload burst funnels through that
	// small pool, so the tail needs the full patience the client already
	// signed up for (never less than one compute's worth).
	window := s.cfg.RequestTimeout
	if min := degradedComputeTimeout + time.Second; window < min {
		window = min
	}
	dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), window)
	defer cancel()
	dres, derr := s.reg.explain(dctx, p.degraded())
	if derr != nil {
		return nil, false, err // surface the original overload error
	}
	return dres, true, nil
}

// buildExplainResponse renders one explain result to the API shape.
// degraded answers are flagged, and any truncation — the degraded lane
// itself, or a refinement loop cut off mid-ramp — sets the response-level
// truncated flag. The shared (possibly cached) result is never mutated.
func buildExplainResponse(p params, res *core.Result, degraded bool) explainResponse {
	resp := explainResponse{
		Dataset:  p.dataset,
		Mode:     p.mode(),
		K:        res.K,
		AutoK:    res.AutoK,
		Degraded: degraded,
		Variance: res.TotalVariance,
		Latency: latencyBreakdown{
			Precompute:   ms(res.Timings.Precompute),
			Cascading:    ms(res.Timings.Cascading),
			Segmentation: ms(res.Timings.Segmentation),
		},
		Approx: res.Approx,
	}
	if res.Approx != nil {
		resp.Truncated = degraded || res.Approx.Truncated
	}
	for _, seg := range res.Segments {
		sj := segmentJSON{Start: seg.StartLabel, End: seg.EndLabel, ErrBound: seg.ErrBound}
		for _, e := range seg.Top {
			sj.Top = append(sj.Top, explJSON{
				Predicates: e.Predicates,
				Effect:     e.Effect.String(),
				Gamma:      e.Gamma,
				Path:       e.Path,
			})
		}
		if seg.Other != nil {
			sj.Other = &explJSON{
				Predicates: seg.Other.Predicates,
				Effect:     seg.Other.Effect.String(),
				Gamma:      seg.Other.Gamma,
			}
		}
		resp.Segments = append(resp.Segments, sj)
	}
	return resp
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	p, err := s.parseParams(r)
	if err != nil {
		writeError(w, err)
		return
	}
	if r.URL.Query().Get("progressive") == "1" {
		s.serveProgressive(w, r, p)
		return
	}
	res, degraded, err := s.explainDegradable(r, p)
	if err != nil {
		writeError(w, err)
		return
	}
	if degraded {
		p = p.degraded() // report the mode actually served
	}
	writeJSON(w, http.StatusOK, buildExplainResponse(p, res, degraded))
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	p, err := s.parseParams(r)
	if err != nil {
		writeError(w, err)
		return
	}
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
	scores, err := core.RecommendExplainByCtx(r.Context(), d.Rel, core.Query{Measure: d.Measure, Agg: d.Agg})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"dataset": p.dataset, "attributes": scores})
}

func (s *Server) handleTrendlines(w http.ResponseWriter, r *http.Request) {
	s.serveSVG(w, r, func(buf *bytes.Buffer, res *core.Result, title string) error {
		return render.Trendlines(buf, res, title)
	})
}

func (s *Server) handleKVariance(w http.ResponseWriter, r *http.Request) {
	s.serveSVG(w, r, func(buf *bytes.Buffer, res *core.Result, title string) error {
		return render.KVarianceCurve(buf, res, title)
	})
}

func (s *Server) serveSVG(w http.ResponseWriter, r *http.Request,
	draw func(*bytes.Buffer, *core.Result, string) error) {
	p, err := s.parseParams(r)
	if err != nil {
		writeError(w, err)
		return
	}
	res, _, err := s.explainDegradable(r, p)
	if err != nil {
		writeError(w, err)
		return
	}
	var buf bytes.Buffer
	if err := draw(&buf, res, p.dataset); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	_, _ = w.Write(buf.Bytes())
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(indexHTML))
}
