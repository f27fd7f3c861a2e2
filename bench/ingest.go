package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// serve-ingest: one writer appends covid day by day to a dataset that
// was uploaded with only its first days, while one reader re-explains it
// whenever it changed. Each append is a half day of rows, labels in
// order, so appends never race each other. Every append invalidates the
// dataset's engines and cached results and starts a background CSV
// re-parse plus snapshot, so catalog persistence, the incremental engine
// and server invalidation do the work serve-explore hardly touches.

// ingestPrefixDays is how much of covid the upload holds.
const ingestPrefixDays = 45

// ingestFlags configure the server: one shard, one worker per core,
// default engine budget (the pool always fits).
var ingestFlags = []string{"-shards", "1", "-workers", "2"}

// ingestKs is the reader's K mix.
var ingestKs = []int{0, 3, 5, 8}

func runIngest(w *workload, p runParams, bin string) (*runResult, error) {
	r := newResult(w, p)
	rng := rand.New(rand.NewSource(p.seed))
	const name = "bench-covid-ingest"
	plan, err := planIngest(p.work, name, ingestPrefixDays, rng)
	if err != nil {
		return nil, err
	}
	golden, err := loadGolden(p.root, plan.Upload.Golden)
	if err != nil {
		return nil, err
	}
	up, err := prepareUpload(plan.Upload)
	if err != nil {
		return nil, err
	}
	c := newLoadClient()
	defer c.CloseIdleConnections()
	srv, setup, err := serveSetup(w, p, bin, ingestFlags, []upload{up}, c)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	r.SetupS = setup

	appendURL := srv.base + "/api/datasets/" + name + "/append"
	sent := 0 // batches the writer sent in the window
	err = serveWindow(r, p, c, srv, func(start, deadline time.Time) []*clientLog {
		writer, reader := newClientLog(w.name, start, p.trace), newClientLog(w.name, start, p.trace)
		writerDone := make(chan struct{})
		// landed carries "an append landed" to the reader; one pending
		// signal stands for any number of appends since its last refresh.
		landed := make(chan struct{}, 1)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer close(writerDone)
			for ; sent < len(plan.Batches) && p.more(sent, deadline); sent++ {
				resp, ok := writer.timed(c, "append", "POST", appendURL, "application/x-ndjson", plan.Batches[sent])
				if ok {
					checkAppend(writer, resp, plan.TimestampsAfter[sent])
				}
				select {
				case landed <- struct{}{}:
				default:
				}
			}
		}()
		// The reader is a dashboard that refreshes its explanation
		// whenever the data changed, so every read answers over fresh
		// data. A reader re-asking between appends would mostly hit the
		// result cache, and its median would flip between cache hits and
		// computes with the relative speed of the two clients.
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(p.seed + 1))
			for {
				select {
				case <-writerDone:
					return
				case <-landed:
				}
				u := query("/api/explain", "dataset", name, "k", fmt.Sprint(ingestKs[rng.Intn(len(ingestKs))]))
				if resp, ok := reader.timed(c, "read", "GET", srv.base+u, "", nil); ok {
					reader.explainAnswer(u, resp, nil, "", nil)
				}
			}
		}()
		wg.Wait()
		return []*clientLog{writer, reader}
	})
	if err != nil {
		return nil, err
	}

	// Land the days the window did not reach in one batch, then the
	// answers at K=3,5,8 must equal the golden corpus: the append path
	// reproduced the full dataset exactly.
	if rest := plan.Batches[sent:]; len(rest) > 0 {
		r.Attempted++
		code, resp, err := do(c, "POST", appendURL, "application/x-ndjson", bytes.Join(rest, nil))
		if err != nil || code != http.StatusOK {
			r.fail("final append: status %d, %v: %.200s", code, err, resp)
		}
	}
	_, pos, err := rootSlice(c, srv.base, name)
	if err != nil {
		return nil, err
	}
	final := newClientLog(w.name, time.Now(), false)
	for _, k := range goldenKs {
		u := query("/api/explain", "dataset", name, "k", fmt.Sprint(k))
		if resp, ok := final.timed(c, "final", "GET", srv.base+u, "", nil); ok {
			final.explainAnswer(u, resp, golden, plan.Upload.Golden, pos)
		}
	}
	r.Attempted += final.Attempted
	r.Failed += final.Failed
	r.Errors = append(r.Errors, final.Errors...)
	if final.degraded > 0 {
		r.fail("final explains were answered by the degraded lane")
	}
	return r, nil
}

// checkAppend verifies an append answer reports the expected series
// length.
func checkAppend(l *clientLog, resp []byte, want int) {
	var a struct {
		N int `json:"n"`
	}
	if err := json.Unmarshal(resp, &a); err != nil || a.N != want {
		l.fail("append: series has %d points, want %d (%v)", a.N, want, err)
	}
}
