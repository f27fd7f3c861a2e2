package server

import (
	"context"
	"errors"
	"hash/fnv"
	"log"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/explain"
)

// Back-pressure sentinels. errQueueFull maps to 429 (the client should
// retry with backoff); context errors map to 503 (the request's deadline
// expired while queued or mid-compute). Approx-eligible explain traffic
// never surfaces either: the handlers catch both and retry on the
// degraded lane (see Server.explainDegradable).
var errQueueFull = errors.New("server overloaded: admission queue full")

// degradedComputeTimeout bounds a degraded-lane compute: the whole point
// of degrading is a fast bounded answer, so the detached compute gets a
// short deadline instead of the full request timeout.
const degradedComputeTimeout = 2 * time.Second

// degradeAfterWait is the "deadline near" trigger: how long a degradable
// request is willing to WAIT — for the engine lock, a worker slot, or a
// deduped leader's in-flight compute — before its handler gives up on
// the normal lane and degrades it. Only waits are capped: once a slot is
// held and the compute is running, it keeps its full deadline, so an
// idle server's cold exact explain never spuriously degrades. The value
// trades exactness under load for tail latency: every queued degradable
// request resolves (to the degraded lane, usually a cached coarse
// answer) within this bound instead of waiting out the request timeout.
const degradeAfterWait = 200 * time.Millisecond

// registry is the sharded serving substrate behind every compute
// endpoint: datasets load lazily on first request, engines pool per
// (dataset, smoothing, optimization) key inside the shard that owns the
// key, and each shard bounds its concurrent work with a worker pool and
// admission queue. Sharding cuts lock contention — requests for different
// shards never touch the same mutex — and gives eviction and admission
// natural local scope.
type registry struct {
	shards []*shard
	met    *metrics

	// cat is the on-disk dataset catalog behind the bring-your-own-data
	// path; nil when the server runs without a data directory. snapshots
	// gates the warm-restart path: when false, catalog datasets always
	// rebuild from their CSV.
	cat       *catalog.Catalog
	snapshots bool

	// requestTimeout bounds detached singleflight computes (see explain).
	requestTimeout time.Duration

	// computes counts full explain computations (observed by tests and
	// the singleflight assertions).
	computes atomic.Int64

	// datasets are materialized once and kept until invalidated (catalog
	// deletes and appends drop the entry; built-ins live forever): they
	// are small relative to engines, and every engine for a dataset
	// shares one relation. dmu guards only the map; each entry
	// materializes under its own lock, so a slow cold load (liquor) never
	// stalls requests for other datasets behind a global lock.
	//
	// gens[name] counts the dataset's invalidations (also under dmu). A
	// compute records the generation it started under and only caches its
	// result if the generation is unchanged when it finishes — without
	// this, an explain in flight across an append would re-insert its
	// pre-append result into the cache replaceDataset just swept, and
	// serve stale data until the next eviction.
	dmu   sync.Mutex
	dsets map[string]*datasetEntry //tsexplain:guardedby dmu
	gens  map[string]uint64        //tsexplain:guardedby dmu

	// live holds the per-dataset streaming ingestion state behind the
	// append endpoint (livemu guards the map; each liveStream has its own
	// lock).
	livemu sync.Mutex
	live   map[string]*liveStream //tsexplain:guardedby livemu

	// refreshing coalesces background snapshot refreshes: at most one
	// refresh per dataset runs at a time, and a burst of appends queues a
	// single re-run instead of a goroutine per append. refreshes counts the
	// running refresh goroutines; once refreshClosed is set (by close) no
	// refresh starts or re-runs, so close can wait for the last one.
	refreshMu     sync.Mutex
	refreshing    map[string]*refreshJob //tsexplain:guardedby refreshMu
	refreshClosed bool                   //tsexplain:guardedby refreshMu
	refreshes     sync.WaitGroup
}

// refreshJob is one dataset's in-flight snapshot refresh. queued marks a
// request that arrived mid-run (the job re-runs once more so the refresh
// covers data persisted after the current run started); waiters are
// closed when the job fully drains.
type refreshJob struct {
	queued  bool            //tsexplain:guardedby registry.refreshMu
	waiters []chan struct{} //tsexplain:guardedby registry.refreshMu
}

// datasetEntry is one lazily materialized dataset. Published relations
// are immutable: an append never mutates an entry's relation, it swaps in
// a fresh entry (see replaceDataset), so concurrent readers of the old
// entry are always safe.
type datasetEntry struct {
	mu     sync.Mutex
	loaded bool              //tsexplain:guardedby mu
	d      *datasets.Dataset //tsexplain:guardedby mu
	err    error             //tsexplain:guardedby mu
}

// liveStream is one catalog dataset's streaming ingestion state: a
// persistent incremental engine whose relation the append endpoint
// extends in place through the O(delta) append path. It is lazily built
// on the first append and owns its relation — pooled serving engines
// never share it, they read immutable published clones.
type liveStream struct {
	mu  sync.Mutex
	inc *core.Incremental //tsexplain:guardedby mu
}

// shard owns a disjoint slice of the key space.
type shard struct {
	met *metrics

	mu        sync.Mutex
	engines   *lruCache[*engineEntry]  //tsexplain:guardedby mu
	results   *lruCache[*core.Result]  //tsexplain:guardedby mu
	inflight  map[string]*inflightCall //tsexplain:guardedby mu
	memUsed   int64                    //tsexplain:guardedby mu
	memBudget int64

	// memMapped tracks bytes the shard's engines read through snapshot
	// memory mappings. Mapped bytes are kernel-evictable (they page in on
	// demand and drop under memory pressure), so they are NOT charged
	// against memBudget — memUsed stays heap-resident-only — but they are
	// accounted and exported so operators can see how much of a dataset
	// is being served off disk.
	memMapped int64 //tsexplain:guardedby mu

	// avgServiceNS is an EWMA (α=1/8) of how long admitted requests hold
	// a worker slot, in nanoseconds. Shed responses derive Retry-After
	// from it: queue-ahead × service time ÷ workers, clamped to [1, 30]s.
	avgServiceNS atomic.Int64

	// Admission: sem holds one token per running request; waiting counts
	// requests queued for a token, capped at queueLimit. degSem is the
	// degraded lane's separate (smaller) worker pool: overload retries of
	// approx-eligible requests run here, so a saturated normal lane can
	// never starve the lane that exists to absorb its overflow.
	sem        chan struct{}
	degSem     chan struct{}
	queueLimit int64
	waiting    atomic.Int64
	busy       atomic.Int64
}

// engineEntry is one pooled engine. lock serializes use (engines are not
// safe for concurrent use) and, unlike a mutex, can be abandoned when the
// waiter's context expires. pins counts requests holding or waiting for
// the entry; eviction skips pinned entries, so an engine is never dropped
// with a request in flight.
type engineEntry struct {
	key  string
	lock chan struct{}
	eng  *core.Engine
	cost int64 // heap-resident bytes, charged against the shard budget
	// mapped is the engine's kernel-evictable mapped-arena size; tracked
	// in the shard's memMapped alongside cost but never charged against
	// the budget (the kernel reclaims those pages itself).
	mapped int64
	pins   atomic.Int32

	// dead and charged are guarded by the shard mutex. dead marks an
	// entry removed from the pool by dataset invalidation while a request
	// was still using it: the request finishes on the entry safely, but
	// its build cost is never charged to the shard (the entry can no
	// longer be evicted to reclaim it). charged tracks whether the
	// entry's cost is currently counted in the shard's memUsed.
	dead    bool //tsexplain:guardedby shard.mu
	charged bool //tsexplain:guardedby shard.mu
}

// inflightCall tracks one in-progress explain; late arrivals for the same
// key wait on done instead of recomputing.
type inflightCall struct {
	done chan struct{}
	res  *core.Result
	err  error
}

func newRegistry(cfg Config, met *metrics, cat *catalog.Catalog) *registry {
	g := &registry{
		met:            met,
		cat:            cat,
		snapshots:      cat != nil && !cfg.DisableSnapshots,
		requestTimeout: cfg.RequestTimeout,
		dsets:          make(map[string]*datasetEntry),
		gens:           make(map[string]uint64),
		live:           make(map[string]*liveStream),
		refreshing:     make(map[string]*refreshJob),
	}
	perShardResults := cfg.ResultCacheSize / cfg.Shards
	if perShardResults < 8 {
		perShardResults = 8
	}
	perShardBudget := cfg.MemoryBudgetBytes / int64(cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		g.shards = append(g.shards, &shard{
			met: met,
			// The engine pool is bounded by the memory budget, not an
			// entry count; give the LRU effectively unbounded capacity.
			engines:    newLRU[*engineEntry](1 << 30),
			results:    newLRU[*core.Result](perShardResults),
			inflight:   make(map[string]*inflightCall),
			memBudget:  perShardBudget,
			sem:        make(chan struct{}, cfg.WorkersPerShard),
			degSem:     make(chan struct{}, degradedWorkers(cfg.WorkersPerShard)),
			queueLimit: int64(cfg.QueueDepth),
		})
	}
	return g
}

// shardFor maps a key to its owning shard (FNV-1a).
func (g *registry) shardFor(key string) *shard {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return g.shards[int(h.Sum32())%len(g.shards)]
}

// dataset returns the named dataset (built-in or catalog), materializing
// it on first request. Unlike the old eager path, a server that never
// sees liquor traffic never pays for building the liquor relation.
// Concurrent first requests for the same dataset share one
// materialization; different datasets materialize independently. Catalog
// load failures are not memoized — a transient file problem heals on the
// next request instead of pinning the dataset broken.
func (g *registry) dataset(name string) (*datasets.Dataset, error) {
	g.dmu.Lock()
	e, ok := g.dsets[name]
	if !ok {
		e = &datasetEntry{}
		g.dsets[name] = e
	}
	g.dmu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.loaded {
		return e.d, e.err
	}
	e.d, e.err = g.loadDataset(name)
	e.loaded = e.err == nil || !g.isCatalogDataset(name)
	if e.err == nil {
		g.met.datasetLoads.Add(1)
	}
	return e.d, e.err
}

// isCatalogDataset reports whether name resolves to a catalog dataset
// (canonical names only; aliases are resolved before the registry).
func (g *registry) isCatalogDataset(name string) bool {
	if g.cat == nil {
		return false
	}
	_, ok := g.cat.Manifest(name)
	return ok
}

// defaultSmooth returns the named dataset's default smoothing window: a
// catalog dataset's manifest window, read without loading its data, or a
// built-in's. An unknown dataset reports 0; its load fails later.
func (g *registry) defaultSmooth(name string) int {
	if !isBuiltinDataset(name) {
		if g.cat != nil {
			if m, ok := g.cat.Manifest(name); ok {
				return m.SmoothWindow
			}
		}
		return 0
	}
	d, err := g.dataset(name)
	if err != nil {
		return 0
	}
	return d.SmoothWindow
}

// loadDataset materializes a dataset: built-in generators first, then the
// catalog. Catalog datasets prefer the warm-restart snapshot (skipping
// the CSV parse and dictionary encoding) and fall back to the CSV when
// the snapshot is missing, stale, in an older format, or fails
// validation. A fallback schedules a background rewrite of the snapshot;
// otherwise every restart would parse the CSV again until the dataset's
// next upload or append.
func (g *registry) loadDataset(name string) (*datasets.Dataset, error) {
	if _, gen, ok := datasets.Builtin(name); ok {
		return gen(), nil
	}
	if g.cat == nil {
		return nil, httpErrf(http.StatusNotFound, "unknown dataset %q", name)
	}
	m, ok := g.cat.Manifest(name)
	if !ok {
		return nil, httpErrf(http.StatusNotFound, "unknown dataset %q", name)
	}
	d, err := datasetFromManifest(m)
	if err != nil {
		return nil, err
	}
	if g.snapshots && g.cat.HasSnapshot(name) {
		start := time.Now()
		rel, err := g.cat.LoadSnapshotRelation(name)
		if err == nil {
			g.met.snapshotRelRestores.Add(1)
			log.Printf("catalog: dataset %q restored from snapshot in %v (CSV parse skipped)", name, time.Since(start).Round(time.Microsecond))
			d.Rel = rel
			return d, nil
		}
		g.met.snapshotFallbacks.Add(1)
		log.Printf("catalog: dataset %q snapshot unusable (%v); rebuilding from CSV", name, err)
	}
	rel, err := g.cat.LoadRelation(name)
	if err != nil {
		return nil, err
	}
	if g.snapshots {
		g.refreshSnapshot(name)
	}
	d.Rel = rel
	return d, nil
}

// datasetFromManifest is the dataset a catalog manifest describes, less
// its relation, which the caller loads or has just parsed.
func datasetFromManifest(m catalog.Manifest) (*datasets.Dataset, error) {
	agg, err := m.AggFunc()
	if err != nil {
		return nil, err
	}
	d := &datasets.Dataset{
		Name:         m.Name,
		Measure:      m.MeasureCol,
		Agg:          agg,
		ExplainBy:    m.ExplainBy,
		MaxOrder:     m.EffectiveMaxOrder(),
		SmoothWindow: m.SmoothWindow,
	}
	if m.Approx != nil {
		d.ApproxMaxCandidates = m.Approx.MaxCandidates
		d.ApproxEpsilon = m.Approx.Epsilon
	}
	return d, nil
}

// degradedWorkers sizes the degraded lane's pool from the normal one:
// half the workers, at least one — enough to absorb overflow without
// letting degraded traffic outcompete normal traffic for CPU.
func degradedWorkers(workersPerShard int) int {
	if n := workersPerShard / 2; n > 1 {
		return n
	}
	return 1
}

// admit reserves one worker slot on the shard, queueing when all slots
// are busy. It fails fast with errQueueFull once queueLimit requests are
// already waiting, and with ctx's error if the request's deadline expires
// while queued. The returned release must be called exactly once.
// (Shed accounting happens once per request in Server.handle, from the
// final response status — not here — so an overload that ends in a
// degraded 200 never counts as a shed.)
func (sh *shard) admit(ctx context.Context) (release func(), err error) {
	select {
	case sh.sem <- struct{}{}:
		sh.busy.Add(1)
		return sh.releaseTimed(time.Now()), nil
	default:
	}
	if sh.waiting.Add(1) > sh.queueLimit {
		sh.waiting.Add(-1)
		return nil, &overloadedError{retryAfter: sh.retryAfterSeconds()}
	}
	defer sh.waiting.Add(-1)
	select {
	case sh.sem <- struct{}{}:
		sh.busy.Add(1)
		return sh.releaseTimed(time.Now()), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// admitDegraded reserves a slot on the shard's degraded lane. The lane
// has no queue limit — its requests already survived one shed decision,
// and a bounded coarse answer is the whole contract — so the only way
// out without a slot is the context expiring.
func (sh *shard) admitDegraded(ctx context.Context) (release func(), err error) {
	select {
	case sh.degSem <- struct{}{}:
		return func() { <-sh.degSem }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// admitPatient reserves a normal worker slot but never sheds on queue
// depth: async-job workers use it, because a job's whole contract is
// "computed eventually" — the worker waits out contention instead of
// failing a persisted job with a transient queue-full. The job-worker
// pool itself is bounded, so at most JobWorkers requests can be waiting
// here at once.
func (sh *shard) admitPatient(ctx context.Context) (release func(), err error) {
	sh.waiting.Add(1)
	defer sh.waiting.Add(-1)
	select {
	case sh.sem <- struct{}{}:
		sh.busy.Add(1)
		return sh.releaseTimed(time.Now()), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (sh *shard) release() {
	sh.busy.Add(-1)
	<-sh.sem
}

// releaseTimed wraps release so the slot's hold time also lands in the
// shard's service-time EWMA — the signal Retry-After is derived from.
func (sh *shard) releaseTimed(start time.Time) func() {
	return func() {
		sh.observeService(time.Since(start))
		sh.release()
	}
}

// observeService folds one observed service time into the EWMA (α=1/8;
// the first observation seeds it).
func (sh *shard) observeService(d time.Duration) {
	if d < 0 {
		return
	}
	for {
		old := sh.avgServiceNS.Load()
		next := int64(d)
		if old != 0 {
			next = old + (int64(d)-old)/8
		}
		if next <= 0 {
			next = 1
		}
		if sh.avgServiceNS.CompareAndSwap(old, next) {
			return
		}
	}
}

// retryAfterSeconds estimates when a shed client can expect a worker
// slot: the queue ahead of it (plus itself) times the observed average
// service time, spread across the worker pool, rounded up and clamped
// to [1, 30] seconds. With no observations yet it reports the old
// static 1s floor.
func (sh *shard) retryAfterSeconds() int {
	avg := sh.avgServiceNS.Load()
	if avg <= 0 {
		return 1
	}
	workers := int64(cap(sh.sem))
	if workers < 1 {
		workers = 1
	}
	estNS := (sh.waiting.Load() + 1) * avg / workers
	secs := (estNS + int64(time.Second) - 1) / int64(time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return int(secs)
}

// overloadedError is errQueueFull carrying the derived Retry-After so
// the HTTP layer can tell the client when a retry is actually worth
// making. errors.Is(err, errQueueFull) keeps matching through Unwrap,
// so status mapping and the degraded-lane retry logic are unchanged.
type overloadedError struct{ retryAfter int }

func (e *overloadedError) Error() string { return errQueueFull.Error() }
func (e *overloadedError) Unwrap() error { return errQueueFull }

// graceCtx derives the wait-bounding context for a request's admission
// grace; a zero grace means unbounded (the parent context alone).
func graceCtx(ctx context.Context, grace time.Duration) (context.Context, context.CancelFunc) {
	if grace <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, grace)
}

// explain serves one explanation: result cache, then singleflight, then
// an admitted compute on a pooled engine. Warm hits return without
// touching admission at all, so cached traffic never occupies a worker
// slot.
func (g *registry) explain(ctx context.Context, p params) (*core.Result, error) {
	if p.approx {
		g.met.approxRequests.Add(1)
	}
	sh := g.shardFor(p.engineKey())
	key := p.key()
	gen := g.datasetGen(p.dataset)

	sh.mu.Lock()
	if res, ok := sh.results.get(key); ok {
		sh.mu.Unlock()
		g.met.cacheHits.Add(1)
		return res, nil
	}
	g.met.cacheMisses.Add(1)
	if c, ok := sh.inflight[key]; ok {
		sh.mu.Unlock()
		g.met.dedups.Add(1)
		// Waiting on another request's compute is a wait like any other:
		// a degradable request's grace caps it, and the handler degrades
		// instead of riding out a slow leader (whose result still lands in
		// the cache for the next request).
		wctx, wcancel := graceCtx(ctx, p.admitGrace)
		defer wcancel()
		select {
		case <-c.done:
			return c.res, c.err
		case <-wctx.Done():
			return nil, wctx.Err()
		}
	}
	c := &inflightCall{done: make(chan struct{})}
	sh.inflight[key] = c
	sh.mu.Unlock()

	// Deregister and wake waiters even if the computation panics (the
	// HTTP server recovers per-connection panics; without the defer the
	// key would stay in-flight forever and every later request for it
	// would block on done).
	defer func() {
		if c.res == nil && c.err == nil {
			c.err = errors.New("explain computation aborted")
		}
		// Cache only if the dataset was not invalidated (deleted or
		// appended to) while this compute ran — a stale result cached
		// here would outlive the sweep replaceDataset just did. The
		// deduped waiters still receive the result either way.
		cacheable := c.err == nil && g.datasetGen(p.dataset) == gen
		sh.mu.Lock()
		delete(sh.inflight, key)
		if cacheable {
			sh.results.add(key, c.res)
		}
		sh.mu.Unlock()
		close(c.done)
	}()

	// The compute is shared by every deduped waiter, so it must not die
	// with the leader's client: it runs detached from the leader's
	// cancellation, bounded by its own RequestTimeout-length deadline. A
	// leader that hangs up leaves the compute finishing (and caching) for
	// the waiters; a genuine deadline still aborts it mid-engine. (The
	// degraded lane's much shorter compute leash is applied inside
	// acquire, after admission — an overload burst queues for the small
	// degraded pool, and that wait must not eat the compute budget.)
	cctx, ccancel := context.WithTimeout(context.WithoutCancel(ctx), g.requestTimeout)
	defer ccancel()
	cctx, eng, release, err := g.acquire(cctx, p)
	if err != nil {
		c.err = err
		return nil, err
	}
	defer release()
	g.computes.Add(1)
	if c.res, c.err = eng.ExplainWithKCtx(cctx, p.k); c.err != nil {
		return nil, c.err
	}
	if c.res.Approx != nil {
		g.met.observeApproxErr(c.res.Approx.MaxErrBound)
	}
	// The leader's own client may have expired while the shared compute
	// ran; report that truthfully without poisoning the cached result.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c.res, nil
}

// acquire takes p's pooled engine exclusively for a request that drives
// it (explains, progressive streams, diffs): entry lock, then a worker
// slot from p's lane, then a build if the engine is cold. The caller
// drives the engine under the returned context; release re-prices the
// entry and frees the slot and the lock. The lock comes BEFORE the slot,
// so a request queued behind a busy engine waits without occupying a slot
// — one slow cold engine cannot absorb a shard's whole worker pool while
// the CPU sits idle. Every slot-taking path orders entry-lock → slot, so
// there is no cycle; degraded requests draw from their lane's own pool,
// under keys disjoint from the normal lane's. A panicking build releases
// the lock, pin and slot instead of leaking them past net/http's recover.
func (g *registry) acquire(ctx context.Context, p params) (context.Context, *core.Engine, func(), error) {
	ekey := p.engineKey()
	sh := g.shardFor(ekey)
	// The deadline-near grace spans both admission waits (entry lock, then
	// worker slot) but NOT the build or the explain: a degradable request
	// that cannot even start within its grace degrades, while one that got
	// its slot computes under the full deadline.
	actx, acancel := graceCtx(ctx, p.admitGrace)
	defer acancel()
	ent, unlock, err := g.lockEntry(actx, sh, ekey)
	if err != nil {
		return nil, nil, nil, err
	}
	admit := sh.admit
	switch {
	case p.deg:
		admit = sh.admitDegraded
	case p.patient:
		admit = sh.admitPatient
	}
	releaseSlot, err := admit(actx)
	if err != nil {
		unlock()
		return nil, nil, nil, err
	}
	// The short leash starts once a degraded slot is held: a degraded
	// answer is build + one coarse refinement round, never more than
	// degradedComputeTimeout of actual work — but however long a wait
	// behind the rest of the overload burst.
	cancel := func() {}
	if p.deg {
		ctx, cancel = context.WithTimeout(ctx, degradedComputeTimeout)
	}
	free := func() { cancel(); releaseSlot(); unlock() }
	acquired := false
	defer func() {
		if !acquired {
			free()
		}
	}()
	if err := g.buildLocked(ctx, sh, ent, p); err != nil {
		return nil, nil, nil, err
	}
	acquired = true
	return ctx, ent.eng, func() { sh.reprice(ent); free() }, nil
}

// newEngine builds p's engine: from the warm-restart snapshot universe
// when the dataset is catalog-backed and a valid snapshot exists
// (skipping the group-by and planning passes), from the relation
// otherwise. A snapshot that fails to load or to match the requested
// options falls back to the full build; restores are never required for
// correctness, only for speed.
func (g *registry) newEngine(ctx context.Context, p params) (*core.Engine, error) {
	d, err := g.dataset(p.dataset)
	if err != nil {
		return nil, err
	}
	q := core.Query{Measure: d.Measure, Agg: d.Agg, ExplainBy: d.ExplainBy}
	o := p.options(d)
	if g.snapshots && g.isCatalogDataset(p.dataset) && g.cat.HasSnapshot(p.dataset) {
		if _, u, err := g.cat.LoadSnapshot(p.dataset); err == nil {
			if eng, err := core.NewEngineFromUniverse(u, q, o); err == nil {
				g.met.snapshotEngRestores.Add(1)
				if eng.ArenaMapped() {
					g.met.snapshotMmapRestores.Add(1)
					log.Printf("catalog: engine for %q serves candidate arena from mapped snapshot (mapped=%d resident=%d bytes)",
						p.dataset, eng.MappedBytes(), eng.ResidentBytes())
				}
				return eng, nil
			}
		}
		// Fall through: the relation-level load already logged and
		// counted the snapshot problem if there was one; an options
		// mismatch here is normal (e.g. a custom smoothing window is
		// fine — smoothing reruns on the restored arena — but a stale
		// snapshot mid-append is not).
	}
	return core.NewEngineCtx(ctx, d.Rel, q, o)
}

// engineShared resolves a pooled engine for read-only use of its
// immutable post-build state (slice traffic reads the candidate
// universe). A cold engine is built under the entry lock and a worker
// slot; once built, the lock and slot are released immediately and only
// the pin is kept for the request's duration, so concurrent readers
// share the engine without serializing on it or occupying slots.
func (g *registry) engineShared(ctx context.Context, p params) (*core.Engine, func(), error) {
	ekey := p.engineKey()
	sh := g.shardFor(ekey)
	ent, unlock, err := g.lockEntry(ctx, sh, ekey)
	if err != nil {
		return nil, nil, err
	}
	shared := false
	defer func() {
		if !shared {
			unlock() // error or panicking build: release lock and pin
		}
	}()
	if ent.eng == nil {
		releaseSlot, err := sh.admit(ctx)
		if err != nil {
			return nil, nil, err
		}
		err = func() error {
			defer releaseSlot()
			return g.buildLocked(ctx, sh, ent, p)
		}()
		if err != nil {
			return nil, nil, err
		}
	}
	eng := ent.eng
	shared = true
	// Drop the lock but keep the pin: the engine cannot be evicted while
	// the reader holds it, and writers (diff) still serialize on the lock.
	<-ent.lock
	return eng, func() { sh.unpin(ent) }, nil
}

// lockEntry returns the shard's entry for ekey with its lock held and a
// pin taken. The pin spans the lock wait as well, so an entry a request
// is queued on cannot be evicted either. unlock releases both.
func (g *registry) lockEntry(ctx context.Context, sh *shard, ekey string) (*engineEntry, func(), error) {
	sh.mu.Lock()
	ent, ok := sh.engines.get(ekey)
	if !ok {
		ent = &engineEntry{key: ekey, lock: make(chan struct{}, 1)}
		sh.engines.add(ekey, ent)
	}
	ent.pins.Add(1)
	sh.mu.Unlock()

	select {
	case ent.lock <- struct{}{}:
	case <-ctx.Done():
		sh.unpin(ent)
		return nil, nil, ctx.Err()
	}
	unlock := func() {
		<-ent.lock
		sh.unpin(ent)
	}
	return ent, unlock, nil
}

// unpin drops one pin on ent. The entry leaves the pool with its last pin
// when it never got an engine (its requests were shed, ran out of their
// grace, or failed the build): it is charged nothing, so budget eviction
// would never clear it, and keys such as a free-form epsilon would grow
// the pool without bound. Pins are taken under the shard mutex, so the
// last one is dropped under it too; with no pin left nobody holds the
// entry lock, so ent.eng is stable.
func (sh *shard) unpin(ent *engineEntry) {
	sh.mu.Lock()
	if ent.pins.Add(-1) == 0 && ent.eng == nil && !ent.dead {
		sh.engines.removeMatching(func(key string) bool { return key == ent.key })
	}
	sh.mu.Unlock()
}

// buildLocked materializes the entry's engine if it is still cold. It
// must be called with the entry lock held and a worker slot admitted;
// the freshly charged cost triggers an eviction pass on the shard.
func (g *registry) buildLocked(ctx context.Context, sh *shard, ent *engineEntry, p params) error {
	if ent.eng != nil {
		return nil
	}
	eng, err := g.newEngine(ctx, p)
	if err != nil {
		return err
	}
	ent.eng = eng
	sh.mu.Lock()
	ent.cost = eng.ResidentBytes()
	ent.mapped = eng.MappedBytes()
	// A dead entry (its dataset was deleted or appended to while this
	// request held it) is no longer in the pool and can never be evicted;
	// charging its cost would inflate memUsed forever.
	if !ent.dead {
		ent.charged = true
		sh.memUsed += ent.cost
		sh.memMapped += ent.mapped
		sh.evictOverBudgetLocked()
	}
	sh.mu.Unlock()
	return nil
}

// reprice re-charges a pooled entry at its engine's current resident
// size after a request drove it. Solves build the engine's score table
// lazily, and the approximate and progressive paths swap it for a wider
// one as they refine, so the cost charged at build time does not bound
// what the engine holds afterwards. It must be called with the entry lock
// held; a grown charge triggers an eviction pass.
func (sh *shard) reprice(ent *engineEntry) {
	cost := ent.eng.ResidentBytes()
	sh.mu.Lock()
	if ent.charged {
		sh.memUsed += cost - ent.cost
		ent.cost = cost
		sh.evictOverBudgetLocked()
	}
	sh.mu.Unlock()
}

// datasetGen returns the dataset's current invalidation generation.
func (g *registry) datasetGen(name string) uint64 {
	g.dmu.Lock()
	defer g.dmu.Unlock()
	return g.gens[name]
}

// replaceDataset installs d as the dataset's materialized entry (nil
// drops it, after a delete) and drops every cached artifact built over
// the previous one: every pooled engine whose key belongs to the dataset
// and every cached result. The upload and append paths pass the relation
// they just parsed or extended, so the next request serves it without
// re-reading the file that was just written, and installing it in the
// same critical section as the drop means no request observes a gap and
// re-parses the CSV. d's relation must be immutable from here on
// (appends clone the live relation). Pins are respected in the only way
// that matters — an entry is removed from the pool, never yanked from the
// request using it: in-flight requests keep their reference and finish
// on the pre-mutation data, while new requests see the new state.
func (g *registry) replaceDataset(name string, d *datasets.Dataset) {
	g.dmu.Lock()
	if d != nil {
		g.dsets[name] = &datasetEntry{loaded: true, d: d}
	} else {
		delete(g.dsets, name)
	}
	g.gens[name]++
	g.dmu.Unlock()

	prefix := name + "|"
	owns := func(key string) bool { return strings.HasPrefix(key, prefix) }
	for _, sh := range g.shards {
		sh.mu.Lock()
		for _, ent := range sh.engines.removeMatching(owns) {
			ent.dead = true
			if ent.charged {
				ent.charged = false
				sh.memUsed -= ent.cost
				sh.memMapped -= ent.mapped
			}
			g.met.catalogEvictions.Add(1)
		}
		sh.results.removeMatching(owns)
		sh.mu.Unlock()
	}
}

// evictOverBudgetLocked sheds cold engines until the shard is back under
// its memory budget. Pinned entries (requests in flight or queued on the
// engine) are never evicted, so a shard whose budget is exceeded entirely
// by pinned engines temporarily stays over budget and converges once the
// requests drain.
//
//tsexplain:locked mu
func (sh *shard) evictOverBudgetLocked() {
	for sh.memUsed > sh.memBudget {
		ent, ok := sh.engines.evictOldest(func(e *engineEntry) bool {
			return e.pins.Load() == 0
		})
		if !ok {
			return
		}
		ent.charged = false
		sh.memUsed -= ent.cost
		sh.memMapped -= ent.mapped
		sh.met.evictions.Add(1)
	}
}

// liveFor returns the dataset's streaming ingestion state, creating it
// on first use.
func (g *registry) liveFor(name string) *liveStream {
	g.livemu.Lock()
	defer g.livemu.Unlock()
	ls, ok := g.live[name]
	if !ok {
		ls = &liveStream{}
		g.live[name] = ls
	}
	return ls
}

// dropLive discards the dataset's streaming state (after a delete, or
// when the live engine diverged from disk).
func (g *registry) dropLive(name string) {
	g.livemu.Lock()
	delete(g.live, name)
	g.livemu.Unlock()
}

// appendDelta ingests one batch of delta rows into a catalog dataset:
// the rows flow through the persistent incremental engine's O(delta)
// append path (relation → universe → restricted re-segmentation — the
// same three layers the streaming endpoint demonstrates), are persisted
// to the dataset's CSV, and a fresh immutable clone of the extended
// relation is published for pooled serving engines. The returned result
// is the refreshed segmentation over the extended series. The caller
// still owns triggering the background snapshot refresh.
func (g *registry) appendDelta(ctx context.Context, name string, timeVals []string, dims [][]string, measures [][]float64) (*core.Result, error) {
	ls := g.liveFor(name)
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.inc == nil {
		d, err := g.dataset(name)
		if err != nil {
			return nil, err
		}
		// The incremental engine owns its relation: parse a private copy
		// from disk (the published entry's relation must stay immutable).
		rel, err := g.cat.LoadRelation(name)
		if err != nil {
			return nil, err
		}
		// The options a default-smoothing explain of the dataset runs.
		inc, _, err := core.NewIncrementalCtx(ctx, rel, core.Query{
			Measure: d.Measure, Agg: d.Agg, ExplainBy: d.ExplainBy,
		}, params{dataset: name, smooth: d.SmoothWindow}.options(d))
		if err != nil {
			return nil, err
		}
		ls.inc = inc
	}
	// The relation layer orders NEW time labels by arrival, but a catalog
	// dataset's CSV reload sorts labels lexicographically — an unseen
	// label that sorts before the current tail would make the restarted
	// series disagree with the live one. Enforce lexicographic order for
	// catalog appends before any state mutates.
	rel := ls.inc.Engine().Universe().Relation()
	last := rel.TimeLabel(rel.NumTimestamps() - 1)
	maxSeen := last
	staged := make(map[string]bool)
	for i, tv := range timeVals {
		if tv == last || staged[tv] {
			continue
		}
		if tv > maxSeen {
			staged[tv] = true
			maxSeen = tv
			continue
		}
		return nil, httpErrf(http.StatusBadRequest,
			"row %d: timestamp %q does not extend the series (last %q, batch max %q); catalog time labels must be lexicographically non-decreasing",
			i, tv, last, maxSeen)
	}

	res, err := ls.inc.AppendRows(timeVals, dims, measures)
	if err != nil {
		// Remaining validation failures (revisions of pre-tail labels,
		// arity mismatches) leave the engine untouched; report as 400.
		return nil, httpErrf(http.StatusBadRequest, "%v", err)
	}
	// Persist the accepted delta. If the durable write fails, the live
	// engine is ahead of disk: drop it so the next append rebuilds from
	// the authoritative CSV, and surface the failure.
	if err := g.cat.AppendRows(name, timeVals, dims, measures); err != nil {
		ls.inc = nil
		g.dropLive(name)
		return nil, err
	}
	g.met.catalogAppendRows.Add(int64(len(timeVals)))

	// Publish the extended data for the serving path: drop every engine
	// and cached result built over the pre-append relation —
	// unconditionally, now that the delta is durable — and install a
	// fresh immutable clone so the next request doesn't re-parse the CSV
	// we just wrote. If the query shape can't be resolved, the
	// invalidation alone is still correct: the next request reloads from
	// the (post-append) CSV.
	var fresh *datasets.Dataset
	if d, err := g.dataset(name); err == nil { // pre-invalidation entry; only used for the query shape
		clone := *d
		clone.Rel = ls.inc.Engine().Universe().Relation().Clone()
		fresh = &clone
	}
	g.replaceDataset(name, fresh)
	return res, nil
}

// refreshSnapshot rebuilds the dataset's warm-restart snapshot in the
// background: parse the CSV, build the raw universe, save — with the
// pre-parse fingerprint, so a concurrent append aborts the save instead
// of publishing a stale snapshot as current. Refreshes coalesce: one
// worker per dataset, and a request arriving mid-run queues exactly one
// re-run (which then covers everything persisted before it started). The
// returned channel closes when the dataset's refresh work fully drains
// (the admin handlers expose it via ?wait=1; fire-and-forget callers
// ignore it).
func (g *registry) refreshSnapshot(name string) <-chan struct{} {
	done := make(chan struct{})
	if g.cat == nil || !g.snapshots || !g.isCatalogDataset(name) {
		close(done)
		return done
	}
	g.refreshMu.Lock()
	if g.refreshClosed {
		g.refreshMu.Unlock()
		close(done)
		return done
	}
	if j, running := g.refreshing[name]; running {
		j.queued = true
		j.waiters = append(j.waiters, done)
		g.refreshMu.Unlock()
		return done
	}
	j := &refreshJob{waiters: []chan struct{}{done}}
	g.refreshing[name] = j
	g.refreshes.Add(1)
	g.refreshMu.Unlock()
	go func() {
		defer g.refreshes.Done()
		for {
			g.snapshotNow(name)
			g.refreshMu.Lock()
			if j.queued && !g.refreshClosed {
				j.queued = false
				g.refreshMu.Unlock()
				continue
			}
			delete(g.refreshing, name)
			waiters := j.waiters
			g.refreshMu.Unlock()
			for _, w := range waiters {
				close(w)
			}
			return
		}
	}()
	return done
}

// close stops snapshot refreshes: none starts or re-runs after it, and it
// returns once the running ones have finished, so nothing writes into the
// data directory afterwards.
func (g *registry) close() {
	g.refreshMu.Lock()
	g.refreshClosed = true
	g.refreshMu.Unlock()
	g.refreshes.Wait()
}

// snapshotNow is the refresh body; failures are logged, never fatal —
// the snapshot is an optimization, the CSV stays authoritative.
func (g *registry) snapshotNow(name string) {
	m, ok := g.cat.Manifest(name)
	if !ok {
		return
	}
	agg, err := m.AggFunc()
	if err != nil {
		return
	}
	fp, err := g.cat.DataFingerprint(name)
	if err != nil {
		log.Printf("catalog: snapshot refresh for %q: %v", name, err)
		return
	}
	start := time.Now()
	rel, err := g.cat.LoadRelation(name)
	if err != nil {
		log.Printf("catalog: snapshot refresh for %q: %v", name, err)
		return
	}
	u, err := explain.NewUniverse(rel, explain.Config{
		Measure: m.MeasureCol, Agg: agg, ExplainBy: m.ExplainBy, MaxOrder: m.EffectiveMaxOrder(),
	})
	if err != nil {
		log.Printf("catalog: snapshot refresh for %q: %v", name, err)
		return
	}
	if err := g.cat.SaveSnapshot(name, rel, u, fp); err != nil {
		if errors.Is(err, catalog.ErrSnapshotStale) {
			// A concurrent append won the race; its own refresh follows.
			return
		}
		log.Printf("catalog: snapshot refresh for %q: %v", name, err)
		return
	}
	g.met.snapshotSaves.Add(1)
	log.Printf("catalog: snapshot for %q refreshed in %v", name, time.Since(start).Round(time.Millisecond))
}

// gauges snapshots per-shard state for the /metrics scrape.
func (g *registry) gauges() []shardGauges {
	out := make([]shardGauges, len(g.shards))
	for i, sh := range g.shards {
		sh.mu.Lock()
		out[i] = shardGauges{
			engines:     sh.engines.len(),
			memBytes:    sh.memUsed,
			mappedBytes: sh.memMapped,
			results:     sh.results.len(),
			queueDepth:  sh.waiting.Load(),
			busy:        sh.busy.Load(),
		}
		sh.mu.Unlock()
	}
	return out
}
