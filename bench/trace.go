package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call the harness made into a layer of the system.
// Spans of one operation share Op, the ID of the operation's root span.
// Derived spans carry a duration the system reported about itself
// (core.Result.Timings) rather than one the harness timed; their start is
// nominal, placed at the parent's start.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Op       int                `json:"op"`
	Workload string             `json:"workload"`
	Name     string             `json:"name"`
	StartNS  int64              `json:"start_ns"`
	EndNS    int64              `json:"end_ns"`
	Derived  bool               `json:"derived,omitempty"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// layer is the span name's prefix before the first dot: "catalog" for
// "catalog.load_relation". Root spans are operations, not layers.
func (s *span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory. A nil *tracer records nothing, so the
// untraced run pays one nil check per call site.
type tracer struct {
	workload string
	base     time.Time
	spans    []span
	// overhead is the time spent inside the tracer itself, reported as
	// trace.overhead_pct.
	overhead time.Duration
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, base: time.Now()}
}

// start opens a span under parent (0 for an operation's root span) and
// returns its ID.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	t0 := time.Now()
	id := len(t.spans) + 1
	op := id
	if parent > 0 {
		op = t.spans[parent-1].Op
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Workload: t.workload, Name: name,
		StartNS: t0.Sub(t.base).Nanoseconds(),
	})
	t.overhead += time.Since(t0)
	return id
}

// end closes span id, attaching counters.
func (t *tracer) end(id int, counters map[string]float64) {
	if t == nil {
		return
	}
	t0 := time.Now()
	s := &t.spans[id-1]
	s.EndNS = t0.Sub(t.base).Nanoseconds()
	s.Counters = counters
	t.overhead += time.Since(t0)
}

// derived records a child of parent with a duration the system reported.
func (t *tracer) derived(name string, parent int, d time.Duration, counters map[string]float64) {
	if t == nil {
		return
	}
	t0 := time.Now()
	p := t.spans[parent-1]
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: p.Op, Workload: t.workload, Name: name,
		StartNS: p.StartNS, EndNS: p.StartNS + d.Nanoseconds(), Derived: true, Counters: counters,
	})
	t.overhead += time.Since(t0)
}

// record appends a finished root span timed by the caller (one client
// request of a serve workload).
func (t *tracer) record(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t0 := time.Now()
	s := start.Sub(t.base).Nanoseconds()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Op: len(t.spans) + 1, Workload: t.workload, Name: name,
		StartNS: s, EndNS: s + d.Nanoseconds(),
	})
	t.overhead += time.Since(t0)
}

// opBreakdown is one operation's wall time split into layer self times.
type opBreakdown struct {
	kind string
	wall time.Duration
	self map[string]time.Duration // by layer; "unattributed" is the root's own time
}

// breakdown splits every operation into the self time of each layer: a
// span's duration minus the time its children cover.
func breakdown(spans []span) []opBreakdown {
	childSum := make(map[int]time.Duration)
	for i := range spans {
		if p := spans[i].Parent; p > 0 {
			childSum[p] += spans[i].dur()
		}
	}
	ops := make(map[int]*opBreakdown)
	var order []int
	for i := range spans {
		s := &spans[i]
		self := s.dur() - childSum[s.ID]
		if s.Parent == 0 {
			ops[s.ID] = &opBreakdown{kind: s.Name, wall: s.dur(), self: map[string]time.Duration{"unattributed": self}}
			order = append(order, s.ID)
			continue
		}
		ops[s.Op].self[s.layer()] += self
	}
	out := make([]opBreakdown, 0, len(order))
	for _, id := range order {
		out = append(out, *ops[id])
	}
	return out
}

// printLayerReport prints, per operation kind, each layer's median self
// time per operation and its share of the operations' summed wall time.
func printLayerReport(w io.Writer, workload string, spans []span) {
	byKind := make(map[string][]opBreakdown)
	var kinds []string
	for _, op := range breakdown(spans) {
		if _, seen := byKind[op.kind]; !seen {
			kinds = append(kinds, op.kind)
		}
		byKind[op.kind] = append(byKind[op.kind], op)
	}
	for _, kind := range kinds {
		ops := byKind[kind]
		var wall time.Duration
		layers := make(map[string]bool)
		for _, op := range ops {
			wall += op.wall
			for l := range op.self {
				layers[l] = true
			}
		}
		names := make([]string, 0, len(layers))
		for l := range layers {
			names = append(names, l)
		}
		sort.Strings(names)
		walls := make([]float64, len(ops))
		for i, op := range ops {
			walls[i] = ms(op.wall)
		}
		fmt.Fprintf(w, "%s trace %s: %d ops, median wall %.3f ms\n", workload, kind, len(ops), median(walls))
		for _, l := range names {
			var total time.Duration
			per := make([]float64, len(ops))
			for i, op := range ops {
				per[i] = ms(op.self[l])
				total += op.self[l]
			}
			share := 0.0
			if wall > 0 {
				share = float64(total) / float64(wall)
			}
			fmt.Fprintf(w, "%s trace %s   %-13s self median %10.3f ms  share %6.2f%%\n", workload, kind, l, median(per), 100*share)
		}
	}
}

// writeSpans writes the spans as one JSON document.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
