package server

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/explain"
)

// checkMemAccounting asserts the registry's engine-pool bookkeeping
// invariants at quiescence: the shard's memUsed equals the sum of its
// charged entries' costs (an append/evict race that leaked a charge
// would starve the pool forever), no dead entry is still pooled, and no
// pin outlived its request.
func checkMemAccounting(t *testing.T, s *Server) {
	t.Helper()
	for i, sh := range s.reg.shards {
		sh.mu.Lock()
		var sum, mapped int64
		for _, el := range sh.engines.items {
			ent := el.Value.(*lruEntry[*engineEntry]).val
			if ent.charged {
				sum += ent.cost
				mapped += ent.mapped
			}
			if ent.dead {
				t.Errorf("shard %d: dead entry %q still pooled", i, ent.key)
			}
			if p := ent.pins.Load(); p != 0 {
				t.Errorf("shard %d: entry %q leaked %d pins", i, ent.key, p)
			}
		}
		if sum != sh.memUsed {
			t.Errorf("shard %d: memUsed %d != charged cost sum %d", i, sh.memUsed, sum)
		}
		if mapped != sh.memMapped {
			t.Errorf("shard %d: memMapped %d != charged mapped sum %d", i, sh.memMapped, mapped)
		}
		sh.mu.Unlock()
	}
}

// TestEvictionConcurrentWithAppend hammers one catalog dataset with
// explains under a 1-byte memory budget (so every build immediately
// triggers an eviction pass) while appending NDJSON deltas to the same
// dataset (each append invalidates the dataset's engines). The pin and
// charge accounting must survive: engines in use are never freed
// mid-request, and no charge leaks into memUsed. Run with -race in CI.
func TestEvictionConcurrentWithAppend(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{
		Shards:            2,
		WorkersPerShard:   4,
		QueueDepth:        64,
		DataDir:           dir,
		MemoryBudgetBytes: 1, // every engine is over budget: constant eviction
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() // waits for the appends' snapshot refreshes
	if rec := upload(t, s, catalogTestManifest, catalogTestCSV(12), false); rec.Code != 201 {
		t.Fatalf("upload: %d: %s", rec.Code, rec.Body.String())
	}

	const (
		explainers = 4
		appenders  = 2
		iters      = 25
	)
	var day atomic.Int64
	var badCodes atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < explainers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Vary smoothing and mode so builds keep happening on
				// distinct engine keys (and keep evicting each other).
				url := fmt.Sprintf("/api/explain?dataset=mydata&k=%d&smooth=%d", 2+i%3, (g+i)%4)
				if i%5 == 0 {
					url += "&mode=approx&epsilon=0.1"
				}
				rec := get(t, s, url)
				switch rec.Code {
				case 200, 404, 429, 503:
				default:
					badCodes.Add(1)
					t.Errorf("explain: unexpected status %d: %s", rec.Code, rec.Body.String())
				}
			}
		}(g)
	}
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				d := day.Add(1)
				body := fmt.Sprintf(`{"time":"2021-04-%04d","dims":{"state":"NY","county":"kings"},"measure":%d}`+"\n", d, 10+d%7)
				rec := appendNDJSON(t, s, "mydata", body, false)
				switch rec.Code {
				// Concurrent appenders race on the tail label: the loser's
				// batch no longer extends the series and is rejected with
				// 400, which must leave the engine untouched.
				case 200, 400, 429, 503:
				default:
					badCodes.Add(1)
					t.Errorf("append: unexpected status %d: %s", rec.Code, rec.Body.String())
				}
			}
		}()
	}
	wg.Wait()

	if badCodes.Load() > 0 {
		t.Fatalf("%d requests failed with unexpected statuses", badCodes.Load())
	}
	// The dataset must still serve consistent results after the storm.
	rec := get(t, s, "/api/explain?dataset=mydata&k=3")
	if rec.Code != 200 {
		t.Fatalf("post-storm explain: %d: %s", rec.Code, rec.Body.String())
	}
	var out explainResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.K != 3 {
		t.Fatalf("post-storm K = %d", out.K)
	}
	checkMemAccounting(t, s)
}

// mmapCapableHost reports whether engine restores on this platform can
// serve the candidate arena zero-copy off a snapshot mapping.
func mmapCapableHost() bool {
	if runtime.GOOS != "linux" && runtime.GOOS != "darwin" {
		return false
	}
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

// TestEvictionConcurrentWithAppendMapped is the mapped-arena variant of
// the storm above: the dataset's snapshot is forced into the arena (v3)
// layout, so engine builds restore off a memory mapping while appends
// invalidate them and background refreshes rename new snapshots over the
// mapped file. Under -race this pins three contracts at once: the
// resident/mapped split never leaks a charge (memUsed == Σ cost and
// memMapped == Σ mapped over charged entries), eviction sweeps uncharge
// both figures, and re-basing the snapshot mid-explain never invalidates
// the pinned slices a live engine is reading.
func TestEvictionConcurrentWithAppendMapped(t *testing.T) {
	oldThreshold := explain.ArenaSnapshotThreshold
	explain.ArenaSnapshotThreshold = 0
	defer func() { explain.ArenaSnapshotThreshold = oldThreshold }()

	dir := t.TempDir()
	s, err := Open(Config{
		Shards:            2,
		WorkersPerShard:   4,
		QueueDepth:        64,
		DataDir:           dir,
		MemoryBudgetBytes: 1, // every engine is over budget: constant eviction
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() // waits for the appends' snapshot refreshes
	// wait=1 blocks until the upload's snapshot refresh lands, so the
	// very first engine build already takes the snapshot-restore path.
	if rec := upload(t, s, catalogTestManifest, catalogTestCSV(12), true); rec.Code != 201 {
		t.Fatalf("upload: %d: %s", rec.Code, rec.Body.String())
	}

	const (
		explainers = 4
		appenders  = 2
		iters      = 20
	)
	var day atomic.Int64
	var badCodes atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < explainers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				url := fmt.Sprintf("/api/explain?dataset=mydata&k=%d&smooth=%d", 2+i%3, (g+i)%4)
				if i%5 == 0 {
					url += "&mode=approx&epsilon=0.1"
				}
				rec := get(t, s, url)
				switch rec.Code {
				case 200, 404, 429, 503:
				default:
					badCodes.Add(1)
					t.Errorf("explain: unexpected status %d: %s", rec.Code, rec.Body.String())
				}
			}
		}(g)
	}
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				d := day.Add(1)
				body := fmt.Sprintf(`{"time":"2021-04-%04d","dims":{"state":"NY","county":"kings"},"measure":%d}`+"\n", d, 10+d%7)
				// wait=1 forces a snapshot refresh per accepted append:
				// each one renames a new snapshot.bin over the file that
				// live mapped engines are still reading.
				rec := appendNDJSON(t, s, "mydata", body, true)
				switch rec.Code {
				case 200, 400, 429, 503:
				default:
					badCodes.Add(1)
					t.Errorf("append: unexpected status %d: %s", rec.Code, rec.Body.String())
				}
			}
		}()
	}
	wg.Wait()

	if badCodes.Load() > 0 {
		t.Fatalf("%d requests failed with unexpected statuses", badCodes.Load())
	}
	rec := get(t, s, "/api/explain?dataset=mydata&k=3")
	if rec.Code != 200 {
		t.Fatalf("post-storm explain: %d: %s", rec.Code, rec.Body.String())
	}
	var out explainResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.K != 3 {
		t.Fatalf("post-storm K = %d", out.K)
	}
	checkMemAccounting(t, s)
	if mmapCapableHost() {
		if got := s.met.snapshotMmapRestores.Load(); got == 0 {
			t.Error("no engine restore served its arena off a mapped snapshot during the storm")
		}
	}
}
