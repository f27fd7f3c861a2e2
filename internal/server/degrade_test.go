package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestOverloadDegradesNeverSheds is the serving layer's headline
// invariant, driven end to end: with the only worker slot pinned and no
// queue, a burst of concurrent approx-eligible explains must ALL come
// back 200 — degraded answers with an honest error bound — and not one
// 429 or 503. Progressive streams in the burst cannot take the pinned
// slot either, so each must answer with exactly one degraded round.
func TestOverloadDegradesNeverSheds(t *testing.T) {
	s := NewWithConfig(Config{Shards: 1, WorkersPerShard: 1, QueueDepth: -1})
	sh := s.reg.shards[0]

	// Pin the worker slot for the whole burst. A replay stream would hold
	// it only until its replay ends, which on a cold server can come
	// before the last request of the burst reaches admission.
	releaseSlot, err := sh.admit(bg())
	if err != nil {
		t.Fatal(err)
	}
	defer releaseSlot()

	// Vary the datasets so the burst isn't collapsed by the result cache
	// or singleflight: distinct keys genuinely contend for admission.
	paths := []string{
		"/api/explain?dataset=vax-deaths",
		"/api/explain?dataset=vax-deaths&k=3",
		"/api/explain?dataset=covid",
		"/api/explain?dataset=covid&k=2",
		"/api/explain?dataset=sp500",
		"/api/explain?dataset=sp500&mode=approx",
		"/api/explain?dataset=covid-daily",
		"/api/explain?dataset=vax-deaths&smooth=7",
		"/api/explain?dataset=covid&progressive=1",
		"/api/explain?dataset=sp500&progressive=1&mode=approx",
	}
	const perPath = 2
	type outcome struct {
		path      string
		code      int
		lines     int
		final     bool
		degraded  bool
		truncated bool
		hasBound  bool
		body      string
	}
	results := make(chan outcome, len(paths)*perPath)
	var wg sync.WaitGroup
	for _, path := range paths {
		for i := 0; i < perPath; i++ {
			wg.Add(1)
			go func(path string) {
				defer wg.Done()
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
				// A synchronous answer is one JSON line; a progressive
				// stream is one NDJSON line per round.
				lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
				var body struct {
					Final     bool `json:"final"`
					Degraded  bool `json:"degraded"`
					Truncated bool `json:"truncated"`
					Approx    *struct {
						MaxErrBound *float64 `json:"maxErrBound"`
					} `json:"approx"`
				}
				_ = json.Unmarshal([]byte(lines[0]), &body)
				results <- outcome{
					path:      path,
					code:      rec.Code,
					lines:     len(lines),
					final:     body.Final,
					degraded:  body.Degraded,
					truncated: body.Truncated,
					hasBound:  body.Approx != nil && body.Approx.MaxErrBound != nil,
					body:      rec.Body.String(),
				}
			}(path)
		}
	}
	wg.Wait()
	close(results)

	var shed, degraded int
	for o := range results {
		switch o.code {
		case 200:
			if o.degraded {
				degraded++
				if !o.truncated || !o.hasBound {
					t.Errorf("degraded 200 without truncated flag + bound: %s", o.body)
				}
			}
			if strings.Contains(o.path, "progressive=1") && (o.lines != 1 || !o.final || !o.degraded) {
				t.Errorf("%s: %d rounds (final %v, degraded %v), want one final degraded round: %s",
					o.path, o.lines, o.final, o.degraded, o.body)
			}
		default:
			shed++
			t.Errorf("%s: approx-eligible request shed with %d under overload: %s", o.path, o.code, o.body)
		}
	}
	if shed != 0 {
		t.Fatalf("%d approx-eligible requests shed, want 0 (degrade, never shed)", shed)
	}
	if degraded == 0 {
		t.Error("no request was served degraded while the worker slot was pinned; the test exercised nothing")
	}
	if s.met.shedQueueFull.Load() != 0 || s.met.shedDeadline.Load() != 0 {
		t.Errorf("shed counters = %d/%d, want 0/0 — degraded 200s must not count as sheds",
			s.met.shedQueueFull.Load(), s.met.shedDeadline.Load())
	}
	if got := s.met.degradedQueueFull.Load() + s.met.degradedDeadline.Load(); got == 0 {
		t.Error("degraded counters never moved")
	}
}

// TestDegradedDeadlineRescue pins the 503 path of the same contract: a
// request whose server-side deadline expires while the slot is pinned is
// rescued by the degraded lane (the client is still connected), instead
// of surfacing 503.
func TestDegradedDeadlineRescue(t *testing.T) {
	cfg := Config{Shards: 1, WorkersPerShard: 1, QueueDepth: 8, RequestTimeout: 60 * time.Millisecond}
	s := NewWithConfig(cfg)
	sh := s.reg.shards[0]

	// Pin the only worker slot directly (a stream request would be killed
	// by the short request timeout this test needs).
	release, err := sh.admit(bg())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	// With a queue, the explain waits until the 60ms request deadline
	// expires — a 503 before this PR — and must now degrade to 200.
	rec := get(t, s, "/api/explain?dataset=vax-deaths")
	if rec.Code != 200 {
		t.Fatalf("deadline-expired degradable explain = %d, want 200 (%s)", rec.Code, rec.Body.String())
	}
	var body struct {
		Degraded  bool `json:"degraded"`
		Truncated bool `json:"truncated"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if !body.Degraded || !body.Truncated {
		t.Errorf("rescue flags = %+v, want degraded and truncated", body)
	}
	if got := s.met.degradedDeadline.Load(); got != 1 {
		t.Errorf("deadline-degraded counter = %d, want 1", got)
	}
	if got := s.met.shedDeadline.Load(); got != 0 {
		t.Errorf("deadline shed counter = %d, want 0 after a successful rescue", got)
	}
}

// TestShedEntriesLeaveThePool: a request that never gets an engine — here
// shed on the full normal lane and answered on the degraded one — must not
// leave its engine entry behind. Epsilon is a free float, so each distinct
// value would otherwise add a pooled entry that holds no engine and costs
// nothing, which budget eviction never clears.
func TestShedEntriesLeaveThePool(t *testing.T) {
	s := NewWithConfig(Config{Shards: 1, WorkersPerShard: 1, QueueDepth: -1})
	sh := s.reg.shards[0]
	releaseSlot, err := sh.admit(bg())
	if err != nil {
		t.Fatal(err)
	}
	explainAt := func(eps float64) {
		t.Helper()
		rec := get(t, s, fmt.Sprintf("/api/explain?dataset=stream&mode=approx&epsilon=%g", eps))
		if rec.Code != 200 {
			t.Fatalf("epsilon %g: %d: %s", eps, rec.Code, rec.Body.String())
		}
	}
	explainAt(0.3) // builds the degraded lane's engine
	before := s.reg.engineEntries()
	for i := 0; i < 200; i++ {
		explainAt(0.01 + 0.001*float64(i))
	}
	if n := s.reg.engineEntries(); n != before {
		t.Errorf("pooled entries = %d after 200 shed explains, want %d", n, before)
	}
	if got := s.met.degradedQueueFull.Load(); got < 200 {
		t.Errorf("degraded on a full queue %d times, want every probe (≥ 200)", got)
	}
	releaseSlot()

	// An entry whose engine was built stays pooled as before.
	if rec := get(t, s, "/api/explain?dataset=stream"); rec.Code != 200 {
		t.Fatalf("exact explain: %d: %s", rec.Code, rec.Body.String())
	}
	if n := s.reg.engineEntries(); n != before+1 {
		t.Errorf("pooled entries = %d after a cold build, want %d", n, before+1)
	}
}
