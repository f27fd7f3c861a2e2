package core

import (
	"context"
	"errors"
	"time"
)

// RoundSink receives one completed progressive round. res is the round's
// result (annotated with per-segment error bounds while refinement is
// still approximate; a plain exact result on the final round); final
// marks the last round of the stream. Returning a non-nil error stops
// the stream — the serving layer uses it when the client hangs up.
type RoundSink func(res *Result, final bool) error

// ExplainProgressive runs one explain as an anytime round stream: yield
// receives every completed refinement round of the approximate path —
// result, per-segment ErrBound, and the run-level ApproxInfo (with its
// Truncated flag) — starting with the coarse first round and refining
// all the way to exactness. Unlike ExplainWithKCtx, the loop does not
// stop at Epsilon or MaxCandidates: once the selection covers every
// eligible candidate the restriction is cleared and the final round is
// the plain exact pipeline, bit-identical to what an exact-mode engine
// reports. A deadline or TimeBudget expiring mid-stream ends it early
// with a final round flagged Truncated instead of an error.
//
// With the approximate path disabled the stream is a single exact round.
// The returned result is the last completed round. Like every Engine
// method, ExplainProgressive must not be called concurrently.
func (e *Engine) ExplainProgressive(ctx context.Context, k int, yield RoundSink) (*Result, error) {
	if yield == nil {
		return nil, errors.New("core: ExplainProgressive requires a yield callback")
	}
	if !e.opts.Approx.Enabled {
		res, err := e.explainExactK(ctx, nil, k)
		if err != nil {
			return nil, err
		}
		return res, yield(res, true)
	}
	return e.runApproxRounds(ctx, nil, k, true, yield)
}

// runApproxRounds drives the anytime refinement loop shared by the
// synchronous approximate path and the progressive stream: solve under
// the pruned candidate set, annotate error bounds, and double the kept
// budget until done. toExact selects the progressive contract — restart
// from the coarse initial budget, refine past Epsilon and MaxCandidates,
// and finish with an unrestricted exact round — while the synchronous
// path stops as soon as the bound meets Epsilon or a budget caps the
// selection. yield, when non-nil, observes every completed round; its
// error aborts the stream. A deadline that expires mid-refinement
// truncates to the best completed round instead of failing.
func (e *Engine) runApproxRounds(ctx context.Context, positions []int, fixedK int, toExact bool, yield RoundSink) (*Result, error) {
	a := e.approxEnsure()
	if toExact {
		// A previous run may have left the selection converged; the
		// progressive contract is the coarse-to-exact ramp.
		a.m = a.m0
	}
	var budgetEnd time.Time
	if tb := e.opts.Approx.TimeBudget; tb > 0 {
		budgetEnd = time.Now().Add(tb)
	}
	emit := func(res *Result, final bool) error {
		if yield == nil {
			return nil
		}
		return yield(res, final)
	}

	var best *Result
	for rounds := 1; ; rounds++ {
		if toExact && a.m >= a.eligible {
			// The selection covers everything eligible: clear the
			// restriction entirely and run the plain exact pipeline, so
			// the final round is bit-identical to an exact-mode engine
			// (same solver path, no approximate annotations).
			e.clearApprox(a)
			res, err := e.explainExactK(ctx, positions, fixedK)
			if err != nil {
				return truncateOnDeadline(best, emit, err)
			}
			best = res
			return best, emit(res, true)
		}
		e.installApprox(a)
		res, err := e.explainExactK(ctx, positions, fixedK)
		if err != nil {
			return truncateOnDeadline(best, emit, err)
		}
		e.annotateApprox(res, a, rounds)
		best = res
		done := !toExact &&
			(res.Approx.MaxErrBound <= e.opts.Approx.Epsilon ||
				a.m >= e.opts.Approx.MaxCandidates ||
				a.m >= a.eligible)
		if !done && ((ctx != nil && ctx.Err() != nil) ||
			(!budgetEnd.IsZero() && time.Now().After(budgetEnd))) {
			res.Approx.Truncated = true
			done = true
		}
		if err := emit(res, done); err != nil {
			return best, err
		}
		if done {
			return best, nil
		}
		a.m *= 2
		if !toExact && a.m > e.opts.Approx.MaxCandidates {
			a.m = e.opts.Approx.MaxCandidates
		}
		if a.m > a.eligible {
			a.m = a.eligible
		}
	}
}

// truncateOnDeadline resolves a mid-round explain failure: a deadline or
// cancellation with at least one completed round degrades to that round,
// flagged Truncated and emitted as the stream's final round; anything
// else propagates as the error it is.
func truncateOnDeadline(best *Result, emit RoundSink, err error) (*Result, error) {
	if best == nil || !(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return nil, err
	}
	best.Approx.Truncated = true
	if yerr := emit(best, true); yerr != nil {
		return best, yerr
	}
	return best, nil
}

// clearApprox returns the explainer to the unrestricted selectable set
// (dropping every result cached under the pruned one) and resets the
// refinement budget to its initial coarse value, so a later synchronous
// approximate explain restarts the anytime ramp instead of paying a
// full-width first round.
func (e *Engine) clearApprox(a *approxState) {
	e.exp.SetRestriction(nil)
	e.vc = nil
	a.installedM = -1
	a.m = a.m0
}
