package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// testConfig returns a single-shard config so tests can reason about one
// worker pool and one engine pool without hashing surprises.
func testConfig() Config {
	return Config{Shards: 1, WorkersPerShard: 1, QueueDepth: -1}
}

func bg() context.Context { return context.Background() }

// resultEntries and engineEntries sum cache sizes across shards.
func (g *registry) resultEntries() int {
	n := 0
	for _, sh := range g.shards {
		sh.mu.Lock()
		n += sh.results.len()
		sh.mu.Unlock()
	}
	return n
}

func (g *registry) engineEntries() int {
	n := 0
	for _, sh := range g.shards {
		sh.mu.Lock()
		n += sh.engines.len()
		sh.mu.Unlock()
	}
	return n
}

func TestAdmitQueueFull(t *testing.T) {
	s := NewWithConfig(Config{Shards: 1, WorkersPerShard: 1, QueueDepth: 1})
	sh := s.reg.shards[0]

	rel1, err := sh.admit(bg())
	if err != nil {
		t.Fatalf("first admit: %v", err)
	}
	// Second request queues (async; it will get the slot when rel1 runs).
	var wg sync.WaitGroup
	wg.Add(1)
	queuedDone := make(chan struct{})
	go func() {
		defer wg.Done()
		rel2, err := sh.admit(bg())
		if err != nil {
			t.Errorf("queued admit: %v", err)
			return
		}
		close(queuedDone)
		rel2()
	}()
	// Wait for the goroutine to be counted as waiting.
	deadline := time.Now().Add(2 * time.Second)
	for sh.waiting.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("queued request never registered as waiting")
		}
		time.Sleep(time.Millisecond)
	}
	// Third request exceeds the queue limit and is shed immediately. (The
	// shed counter is maintained centrally in Server.handle from the final
	// response status, not here — admit only returns the sentinel.) Its
	// Retry-After is the one queued request plus itself, times the average
	// service time, over the one worker: rounded up to whole seconds and
	// clamped to 30.
	for _, tc := range []struct {
		avg  time.Duration
		want int
	}{
		{3 * time.Second, 6},
		{2200 * time.Millisecond, 5},
		{time.Minute, 30},
	} {
		sh.avgServiceNS.Store(0) // the next observation seeds the average
		sh.observeService(tc.avg)
		_, err := sh.admit(bg())
		var oe *overloadedError
		if !errors.Is(err, errQueueFull) || !errors.As(err, &oe) {
			t.Fatalf("over-limit admit: err = %v, want errQueueFull as *overloadedError carrying Retry-After", err)
		}
		if oe.retryAfter != tc.want {
			t.Errorf("average service %v: retryAfter = %d, want %d", tc.avg, oe.retryAfter, tc.want)
		}
	}
	rel1()
	wg.Wait()
	select {
	case <-queuedDone:
	default:
		t.Error("queued request never acquired the released slot")
	}
}

func TestAdmitDeadlineWhileQueued(t *testing.T) {
	s := NewWithConfig(Config{Shards: 1, WorkersPerShard: 1, QueueDepth: 4})
	sh := s.reg.shards[0]
	release, err := sh.admit(bg())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithTimeout(bg(), 20*time.Millisecond)
	defer cancel()
	if _, err := sh.admit(ctx); err != context.DeadlineExceeded {
		t.Fatalf("queued admit past deadline: err = %v, want DeadlineExceeded", err)
	}
}

// TestEvictionRespectsBudgetAndPins drives the registry over a tiny
// memory budget and checks that cold engines are evicted while pinned
// engines (in-flight requests) never are.
// TestPatientExplainWaitsOutFullQueue holds a one-worker shard's only
// slot with no queue allowed: a normal explain sheds at once, while a
// patient one (the async-job lane) queues for the slot and returns its
// result once the slot frees.
func TestPatientExplainWaitsOutFullQueue(t *testing.T) {
	s := NewWithConfig(testConfig())
	sh := s.reg.shards[0]
	releaseSlot, err := sh.admit(bg())
	if err != nil {
		t.Fatal(err)
	}
	p := params{dataset: "covid", k: 3}
	if _, err := s.reg.explain(bg(), p); !errors.Is(err, errQueueFull) {
		t.Fatalf("explain on a full shard: err = %v, want errQueueFull", err)
	}
	p.patient = true
	done := make(chan error, 1)
	go func() {
		res, err := s.reg.explain(bg(), p)
		if err == nil && len(res.Segments) == 0 {
			err = errors.New("result has no segments")
		}
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for sh.waiting.Load() != 1 {
		select {
		case err := <-done:
			t.Fatalf("patient explain returned before the slot freed: %v", err)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("patient explain never queued for the slot")
		}
	}
	releaseSlot()
	if err := <-done; err != nil {
		t.Fatalf("patient explain: %v", err)
	}
}

func TestEvictionRespectsBudgetAndPins(t *testing.T) {
	cfg := testConfig()
	cfg.MemoryBudgetBytes = 1 // every engine build exceeds the budget
	s := NewWithConfig(cfg)
	sh := s.reg.shards[0]

	p1 := params{dataset: "vax-deaths"}
	p2 := params{dataset: "stream"}
	if _, err := s.reg.explain(bg(), p1); err != nil {
		t.Fatal(err)
	}
	// p1's engine was pinned during its own build, so it survives its own
	// eviction pass and is evictable only once the request finished.
	if n := s.reg.engineEntries(); n != 1 {
		t.Fatalf("after first explain: %d engines, want 1", n)
	}
	if _, err := s.reg.explain(bg(), p2); err != nil {
		t.Fatal(err)
	}
	// p2's build evicted the now-cold p1 engine.
	if n := s.reg.engineEntries(); n != 1 {
		t.Errorf("after second explain: %d engines, want 1 (cold engine evicted)", n)
	}
	if got := s.met.evictions.Load(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	sh.mu.Lock()
	_, p1Resident := sh.engines.get(p1.engineKey())
	ent2, p2Resident := sh.engines.get(p2.engineKey())
	sh.mu.Unlock()
	if p1Resident || !p2Resident {
		t.Fatalf("resident engines: p1=%v p2=%v, want only p2", p1Resident, p2Resident)
	}

	// Pin p2's engine as an in-flight request would, then build a third
	// engine: the eviction pass must skip the pinned entry even though the
	// shard is over budget.
	ent2.pins.Add(1)
	if _, err := s.reg.explain(bg(), p1); err != nil {
		t.Fatal(err)
	}
	sh.mu.Lock()
	_, p2StillThere := sh.engines.get(p2.engineKey())
	sh.mu.Unlock()
	if !p2StillThere {
		t.Fatal("pinned engine was evicted with a request in flight")
	}
	// Unpinned, it becomes evictable on the next pass.
	ent2.pins.Add(-1)
	if _, err := s.reg.explain(bg(), params{dataset: "covid-daily"}); err != nil {
		t.Fatal(err)
	}
	sh.mu.Lock()
	_, p2Gone := sh.engines.get(p2.engineKey())
	sh.mu.Unlock()
	if p2Gone {
		t.Error("unpinned cold engine survived an over-budget eviction pass")
	}
}

// TestStreamHoldsWorkerSlotBackpressure exercises end-to-end
// back-pressure under the degrade-never-shed contract: with one worker
// and no queue, a streaming replay occupies the only slot. A concurrent
// vanilla explain (not approx-eligible) is shed with 429 and a JSON
// error; a concurrent optimized explain is rescued by the degraded lane
// and answers 200, flagged degraded and truncated with its bound.
func TestStreamHoldsWorkerSlotBackpressure(t *testing.T) {
	s := NewWithConfig(Config{Shards: 1, WorkersPerShard: 1, QueueDepth: -1})
	sh := s.reg.shards[0]

	ctx, cancelStream := context.WithCancel(bg())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		req := httptest.NewRequest("GET", "/api/stream?dataset=stream&start=2&step=1", nil).WithContext(ctx)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for sh.busy.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("stream request never occupied the worker slot")
		}
		time.Sleep(time.Millisecond)
	}

	// Vanilla engines have no approximate path to degrade onto: shed.
	rec := get(t, s, "/api/explain?dataset=vax-deaths&vanilla=1")
	if rec.Code != 429 {
		t.Fatalf("vanilla explain while saturated: status = %d, want 429 (%s)", rec.Code, rec.Body.String())
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Error("429 response missing Retry-After")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 || secs > 30 {
		t.Errorf("429 Retry-After = %q, want an integer in [1, 30] derived from observed service time", ra)
	}
	var out struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out.Error == "" {
		t.Errorf("429 body %q is not the JSON error shape", rec.Body.String())
	}
	if got := s.met.shedQueueFull.Load(); got != 1 {
		t.Errorf("queue-full shed counter = %d, want 1 (the vanilla request)", got)
	}

	// An approx-eligible explain degrades instead: 200 with the flags.
	rec = get(t, s, "/api/explain?dataset=vax-deaths")
	if rec.Code != 200 {
		t.Fatalf("degradable explain while saturated: status = %d, want 200 (%s)", rec.Code, rec.Body.String())
	}
	var deg struct {
		Degraded  bool `json:"degraded"`
		Truncated bool `json:"truncated"`
		Approx    *struct {
			MaxErrBound float64 `json:"maxErrBound"`
			Epsilon     float64 `json:"epsilon"`
		} `json:"approx"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &deg); err != nil {
		t.Fatalf("decoding degraded response: %v", err)
	}
	if !deg.Degraded || !deg.Truncated || deg.Approx == nil {
		t.Fatalf("degraded response flags = %+v, want degraded+truncated with an approx bound", deg)
	}
	if got := s.met.degradedQueueFull.Load(); got != 1 {
		t.Errorf("degraded counter = %d, want 1", got)
	}
	if got := s.met.shedQueueFull.Load(); got != 1 {
		t.Errorf("queue-full shed counter moved to %d after a degraded 200; a rescue must not count as a shed", got)
	}

	cancelStream()
	wg.Wait()
	// With the slot free again, the same request succeeds normally.
	deadline = time.Now().Add(5 * time.Second)
	for {
		if rec := get(t, s, "/api/explain?dataset=vax-deaths&vanilla=1"); rec.Code == 200 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("explain still shed after stream released its slot")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRequestDeadlineSheds503 gives the server a deadline far shorter
// than a cold liquor build: the engine observes the cancellation
// mid-precompute and the request fails with 503, not a hung worker.
// (vanilla=1 keeps the request off the degraded lane; an optimized
// explain would be rescued with a degraded answer instead — see
// degrade_test.go.)
func TestRequestDeadlineSheds503(t *testing.T) {
	cfg := testConfig()
	cfg.RequestTimeout = 30 * time.Millisecond
	s := NewWithConfig(cfg)
	rec := get(t, s, "/api/explain?dataset=liquor&vanilla=1")
	if rec.Code != 503 {
		t.Fatalf("status = %d, want 503 (%s)", rec.Code, rec.Body.String())
	}
	var out struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out.Error == "" {
		t.Errorf("503 body %q is not the JSON error shape", rec.Body.String())
	}
	if got := s.met.shedDeadline.Load(); got == 0 {
		t.Error("deadline shed counter not incremented")
	}
	// The worker slot was released despite the abort.
	if busy := s.reg.shards[0].busy.Load(); busy != 0 {
		t.Errorf("busy workers = %d after aborted request, want 0", busy)
	}
}

func TestDatasetsLoadLazily(t *testing.T) {
	s := New()
	if got := s.met.datasetLoads.Load(); got != 0 {
		t.Fatalf("datasets loaded at construction = %d, want 0 (lazy)", got)
	}
	get(t, s, "/api/explain?dataset=vax-deaths")
	if got := s.met.datasetLoads.Load(); got != 1 {
		t.Errorf("dataset loads after one explain = %d, want 1", got)
	}
	get(t, s, "/api/explain?dataset=vax-deaths&k=2")
	if got := s.met.datasetLoads.Load(); got != 1 {
		t.Errorf("dataset loads after warm engine reuse = %d, want 1", got)
	}
}

func TestShardForIsStable(t *testing.T) {
	s := NewWithConfig(Config{Shards: 4})
	for _, key := range []string{"covid|0|false", "liquor|7|true", "stream|0|false"} {
		a, b := s.reg.shardFor(key), s.reg.shardFor(key)
		if a != b {
			t.Errorf("shardFor(%q) not stable", key)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := NewWithConfig(testConfig())
	get(t, s, "/api/explain?dataset=vax-deaths")
	get(t, s, "/api/explain?dataset=vax-deaths") // warm: cache hit
	get(t, s, "/api/explain?dataset=bogus")      // 404

	rec := get(t, s, "/metrics")
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`tsexplain_http_requests_total{endpoint="/api/explain",code="200"} 2`,
		`tsexplain_http_requests_total{endpoint="/api/explain",code="404"} 1`,
		`tsexplain_http_request_duration_seconds_bucket{endpoint="/api/explain",le="+Inf"} 3`,
		`tsexplain_http_request_duration_seconds_count{endpoint="/api/explain"} 3`,
		`tsexplain_result_cache_hits_total 1`,
		`tsexplain_result_cache_misses_total 1`,
		`tsexplain_dataset_loads_total 1`,
		`tsexplain_shed_total{reason="queue_full"} 0`,
		`tsexplain_engine_pool_engines{shard="0"} 1`,
		`tsexplain_result_cache_entries{shard="0"} 1`,
		`tsexplain_queue_depth{shard="0"} 0`,
		`tsexplain_workers_busy{shard="0"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// Engine pool bytes reflect the resident engine's footprint.
	if !strings.Contains(body, `tsexplain_engine_pool_bytes{shard="0"} `) {
		t.Error("metrics output missing engine pool bytes gauge")
	}
}

// TestLeaderDisconnectDoesNotFailWaiters cancels the singleflight
// leader's context while a waiter is deduped onto the same compute: the
// detached compute must finish and serve the waiter regardless.
func TestLeaderDisconnectDoesNotFailWaiters(t *testing.T) {
	s := NewWithConfig(Config{Shards: 1, WorkersPerShard: 1, QueueDepth: 4})
	p := params{dataset: "vax-deaths"}
	sh := s.reg.shardFor(p.engineKey())

	// Occupy the only worker slot so the leader's compute queues
	// deterministically while registered in flight.
	releaseSlot, err := sh.admit(bg())
	if err != nil {
		t.Fatal(err)
	}
	leaderCtx, cancelLeader := context.WithCancel(bg())
	leaderDone := make(chan error, 1)
	go func() {
		_, err := s.reg.explain(leaderCtx, p)
		leaderDone <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for sh.waiting.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("leader never queued for the worker slot")
		}
		time.Sleep(time.Millisecond)
	}
	waiterDone := make(chan error, 1)
	go func() {
		_, err := s.reg.explain(bg(), p)
		waiterDone <- err
	}()
	for s.met.dedups.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never deduped onto the leader's compute")
		}
		time.Sleep(time.Millisecond)
	}
	// Hang up the leader's client, then let the compute run: it is
	// detached from the leader's cancellation, so the waiter still gets
	// the real result.
	cancelLeader()
	releaseSlot()
	if err := <-waiterDone; err != nil {
		t.Fatalf("waiter failed with leader's cancellation: %v", err)
	}
	if err := <-leaderDone; err != nil && !errors.Is(err, context.Canceled) {
		t.Errorf("leader err = %v, want nil or context.Canceled", err)
	}
	if n := s.reg.computes.Load(); n != 1 {
		t.Errorf("computes = %d, want 1 (waiter must reuse the detached compute)", n)
	}
}

// TestEngineSharedAllowsConcurrentReaders takes the ad-hoc engine shared
// twice without releasing: the second acquisition must not block on the
// first (readers share the immutable universe), and an exclusive user
// still works once the readers are done.
func TestEngineSharedAllowsConcurrentReaders(t *testing.T) {
	s := NewWithConfig(testConfig())
	p := params{dataset: "vax-deaths", adhoc: true}
	e1, rel1, err := s.reg.engineShared(bg(), p)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		e2, rel2, err := s.reg.engineShared(bg(), p)
		if err != nil {
			t.Errorf("second shared acquisition: %v", err)
			return
		}
		if e2 != e1 {
			t.Error("shared readers got different engines")
		}
		rel2()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("second shared reader blocked behind the first")
	}
	rel1()
	_, _, relX, err := s.reg.acquire(bg(), p)
	if err != nil {
		t.Fatalf("exclusive after readers: %v", err)
	}
	relX()
}

// TestEngineKeys pins every pooled engine key to its established string.
// A key picks the request's shard (FNV-1a of the key) and the entry lock
// it waits on, so a changed key moves traffic between shards and locks
// even where the engine it names is the same.
func TestEngineKeys(t *testing.T) {
	for _, tc := range []struct {
		p    params
		want string
	}{
		{params{dataset: "liquor", smooth: 5}, "liquor|5|false|exact"},
		{params{dataset: "liquor", smooth: 5, k: 4, patient: true, admitGrace: time.Second}, "liquor|5|false|exact"},
		{params{dataset: "covid", approx: true}, "covid|0|false|approx:0"},
		{params{dataset: "covid", approx: true, epsilon: 0.1}, "covid|0|false|approx:0.1"},
		{params{dataset: "covid", smooth: 3, approx: true, epsilon: 0.1}.degraded(), "covid|3|false|deg"},
		{params{dataset: "sp500", vanilla: true}, "sp500|0|true|exact"},
		{params{dataset: "mydata", smooth: 7, vanilla: true, approx: true, epsilon: 0.02}, "mydata|7|true|approx:0.02"},
		{params{dataset: "liquor", adhoc: true}, "liquor|adhoc"},
	} {
		if got := tc.p.engineKey(); got != tc.want {
			t.Errorf("engineKey(%+v) = %q, want %q", tc.p, got, tc.want)
		}
	}
}

// TestFailedBuildLeavesPoolUsable fails an engine build — the catalog
// dataset's CSV is missing on first load, and snapshots are off — and
// checks the failure leaves the pool as it found it: no entry, no charge,
// no compute. Once the CSV is in place, the same key builds and pools one
// engine.
func TestFailedBuildLeavesPoolUsable(t *testing.T) {
	dir := t.TempDir()
	dsDir := filepath.Join(dir, "mydata")
	if err := os.Mkdir(dsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dsDir, "manifest.json"), []byte(catalogTestManifest), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.DataDir = dir
	cfg.DisableSnapshots = true
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	sh := s.reg.shards[0]
	memUsed := func() int64 {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.memUsed
	}
	entries0, mem0, computes0 := s.reg.engineEntries(), memUsed(), s.reg.computes.Load()

	p := params{dataset: "mydata"}
	if _, err := s.reg.explain(bg(), p); err == nil {
		t.Fatal("explain over a dataset whose CSV is missing succeeded, want error")
	}
	if n, m, c := s.reg.engineEntries(), memUsed(), s.reg.computes.Load(); n != entries0 || m != mem0 || c != computes0 {
		t.Fatalf("after the failed build: %d entries, %d bytes charged, %d computes; want %d, %d, %d",
			n, m, c, entries0, mem0, computes0)
	}

	if err := os.WriteFile(filepath.Join(dsDir, "data.csv"), []byte(catalogTestCSV(12)), 0o644); err != nil {
		t.Fatal(err)
	}
	if res, err := s.reg.explain(bg(), p); err != nil || res == nil {
		t.Fatalf("explain after the failed build: %v", err)
	}
	if n := s.reg.engineEntries(); n != entries0+1 {
		t.Errorf("%d entries after the working build, want %d", n, entries0+1)
	}
	if m := memUsed(); m <= mem0 {
		t.Errorf("working build charged %d bytes in all, want more than %d", m, mem0)
	}
}

// TestRegistryRepricesEngineAfterUse checks the pool charges what an
// engine holds after a request, not what it held when built: the first
// approximate explain builds a score table wider than the ramp's coarse
// floor of 32 ids, and a progressive stream on the same engine ends on a
// table over every filter survivor.
func TestRegistryRepricesEngineAfterUse(t *testing.T) {
	s := NewWithConfig(testConfig())
	sh := s.reg.shards[0]
	pooled := func() *engineEntry {
		t.Helper()
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if n := sh.engines.len(); n != 1 {
			t.Fatalf("%d pooled engines, want 1", n)
		}
		return sh.engines.ll.Front().Value.(*lruEntry[*engineEntry]).val
	}
	charged := func(ent *engineEntry) int64 {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return ent.cost
	}

	if rec := get(t, s, "/api/explain?dataset=liquor&k=3&mode=approx"); rec.Code != 200 {
		t.Fatalf("approx explain: %d: %s", rec.Code, rec.Body.String())
	}
	ent := pooled()
	eng := ent.eng
	approxIDs := len(eng.Explainer().ScoreTable().IDs())
	if approxIDs <= 32 || approxIDs >= eng.FilteredCount() {
		t.Fatalf("approximate table lists %d ids; the case needs more than the floor and fewer than the %d survivors",
			approxIDs, eng.FilteredCount())
	}
	approxCost := charged(ent)
	if approxCost != eng.ResidentBytes() {
		t.Errorf("after the approximate explain: charged %d, engine holds %d", approxCost, eng.ResidentBytes())
	}

	if rec := get(t, s, "/api/explain?dataset=liquor&k=3&progressive=1"); rec.Code != 200 {
		t.Fatalf("progressive explain: %d: %s", rec.Code, rec.Body.String())
	}
	if pooled() != ent {
		t.Fatal("the progressive stream did not reuse the approximate engine")
	}
	if n := len(eng.Explainer().ScoreTable().IDs()); n != eng.FilteredCount() {
		t.Fatalf("progressive table lists %d ids, want the %d survivors", n, eng.FilteredCount())
	}
	if got := charged(ent); got != eng.ResidentBytes() || got <= approxCost {
		t.Errorf("after the progressive stream: charged %d (was %d), engine holds %d", got, approxCost, eng.ResidentBytes())
	}
	checkMemAccounting(t, s)
}

func TestAccessLogWritesJSONLines(t *testing.T) {
	var buf syncBuffer
	cfg := testConfig()
	cfg.AccessLog = &buf
	s := NewWithConfig(cfg)
	get(t, s, "/api/explain?dataset=vax-deaths&k=3")
	line := strings.TrimSpace(buf.String())
	if line == "" {
		t.Fatal("no access log line written")
	}
	var entry struct {
		Msg      string  `json:"msg"`
		Endpoint string  `json:"endpoint"`
		Status   int     `json:"status"`
		Ms       float64 `json:"ms"`
	}
	if err := json.Unmarshal([]byte(strings.Split(line, "\n")[0]), &entry); err != nil {
		t.Fatalf("access log line %q is not JSON: %v", line, err)
	}
	if entry.Msg != "request" || entry.Endpoint != "/api/explain" || entry.Status != 200 {
		t.Errorf("access log entry = %+v", entry)
	}
}

// syncBuffer is a mutex-guarded buffer (the logger writes from handler
// goroutines).
type syncBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
