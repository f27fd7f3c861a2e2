package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
)

// Progressive explain streaming: GET /api/explain?progressive=1 serves
// the anytime refinement loop round by round — the coarse first answer
// flushes immediately, every later round tightens the reported error
// bound, and the final round is the exact answer (bit-identical to a
// synchronous mode=exact explain). The stream is NDJSON by default and
// Server-Sent Events when the client asks via Accept: text/event-stream.

// progressiveRound is one streamed refinement round: the standard
// explain response plus the round's position in the stream and its
// latency (time since the previous round flushed).
type progressiveRound struct {
	Round     int     `json:"round"`
	Final     bool    `json:"final"`
	ElapsedMs float64 `json:"elapsedMs"`
	explainResponse
}

// roundWriter streams progressive events in the negotiated framing.
type roundWriter struct {
	w       http.ResponseWriter
	flusher http.Flusher
	sse     bool
}

func newRoundWriter(w http.ResponseWriter, r *http.Request) *roundWriter {
	rw := &roundWriter{w: w}
	rw.sse = strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if rw.sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	rw.flusher, _ = w.(http.Flusher)
	return rw
}

func (rw *roundWriter) writeEvent(event string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if rw.sse {
		if _, err := fmt.Fprintf(rw.w, "event: %s\ndata: %s\n\n", event, b); err != nil {
			return err
		}
	} else {
		if _, err := fmt.Fprintf(rw.w, "%s\n", b); err != nil {
			return err
		}
	}
	if rw.flusher != nil {
		rw.flusher.Flush()
	}
	return nil
}

// serveProgressive streams one explain as refinement rounds. The engine
// is held exclusively — lock and worker slot — for the whole stream,
// exactly like the streaming-replay endpoint: a progressive stream IS
// one long compute. Results are not cached (every round is interim state
// except the last, and exact-mode traffic has its own lane and key).
// Under overload the stream obeys the same degrade-never-shed contract
// as synchronous explains: if the engine cannot be acquired within the
// admission grace, the response is a single degraded-lane round instead
// of a 429/503.
func (s *Server) serveProgressive(w http.ResponseWriter, r *http.Request, p params) {
	// An unspecified mode upgrades to the approximate path: a progressive
	// stream over an exact engine would be a single round, which is legal
	// (and what mode=exact requests get) but defeats the point.
	if !p.approx && !p.vanilla && r.URL.Query().Get("mode") == "" {
		p.approx = true
	}
	if p.degradable() {
		p.admitGrace = degradeAfterWait
	}
	ctx, eng, release, err := s.reg.acquire(r.Context(), p)
	if err != nil {
		// The same rescue explainDegradable applies, minus the retry of
		// the full stream: one degraded round IS a valid (truncated)
		// progressive stream. A client that already hung up gets neither.
		if p.degradable() && overloadError(err) &&
			!errors.Is(context.Cause(r.Context()), context.Canceled) {
			s.serveProgressiveDegraded(w, r, p, err)
			return
		}
		writeError(w, err)
		return
	}
	defer release()

	rw := newRoundWriter(w, r)
	round := 0
	lastFlush := time.Now()
	_, err = eng.ExplainProgressive(ctx, p.k, func(res *core.Result, final bool) error {
		round++
		elapsed := time.Since(lastFlush)
		s.met.observeProgressiveRound(elapsed.Seconds())
		pr := progressiveRound{
			Round:           round,
			Final:           final,
			ElapsedMs:       ms(elapsed),
			explainResponse: buildExplainResponse(p, res, false),
		}
		lastFlush = time.Now()
		return rw.writeEvent("round", pr)
	})
	if err != nil {
		if round == 0 {
			writeError(w, err)
			return
		}
		// The stream already carries rounds (and a 200): report the
		// failure in-band, mirroring the replay stream's contract.
		_ = rw.writeEvent("error", map[string]string{"error": err.Error()})
	}
}

// serveProgressiveDegraded serves an overloaded progressive request its
// degraded answer: a single round — flagged degraded, truncated, and
// final — computed on the degraded lane with the coarse epsilon. The
// original overload error surfaces only if even the degraded lane fails.
func (s *Server) serveProgressiveDegraded(w http.ResponseWriter, r *http.Request, p params, cause error) {
	start := time.Now()
	res, err := s.explainDegraded(r, p, cause)
	if err != nil {
		writeError(w, cause)
		return
	}
	rw := newRoundWriter(w, r)
	s.met.observeProgressiveRound(time.Since(start).Seconds())
	_ = rw.writeEvent("round", progressiveRound{
		Round:           1,
		Final:           true,
		ElapsedMs:       ms(time.Since(start)),
		explainResponse: buildExplainResponse(p.degraded(), res, true),
	})
}
