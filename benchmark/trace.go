package main

import (
	"sync"
	"time"
)

// Tracing lives in the benchmark's own files: a span is recorded around
// each call into a layer's public entry point, held in memory, and
// written to trace-<workload>.json when the run ends. Nothing inside the program
// is instrumented.
//
// The layers of one request are replayed one call at a time, innermost
// first, so a child's start_ns precedes its parent's: containment is
// stated by parent_id, not by the clock.

// span is one timed call into one layer on behalf of one request.
type span struct {
	TraceID  int                `json:"trace_id"`  // the request (or ingest batch) the call served
	SpanID   int                `json:"span_id"`   // unique within the file
	ParentID int                `json:"parent_id"` // 0: the request's outermost span
	Layer    string             `json:"layer"`     // the module that did the work
	Name     string             `json:"name"`      // the entry point called
	StartNs  int64              `json:"start_ns"`  // since the tracer was created
	EndNs    int64              `json:"end_ns"`
	Counts   map[string]float64 `json:"counts,omitempty"` // work done, measured where it happened
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer collects spans.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	ids    int
	chains map[int]*chain
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), chains: make(map[int]*chain)} }

// chain names the spans of one trace, so that a span can name its
// parent before the parent is measured.
type chain struct {
	tr    *tracer
	trace int
	ids   map[string]int
}

// chain returns the chain of trace, creating it on first use.
func (t *tracer) chain(trace int) *chain {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.chains[trace]
	if c == nil {
		c = &chain{tr: t, trace: trace, ids: make(map[string]int)}
		t.chains[trace] = c
	}
	return c
}

func (c *chain) id(name string) int {
	if c.ids[name] == 0 {
		c.tr.mu.Lock()
		c.tr.ids++
		c.ids[name] = c.tr.ids
		c.tr.mu.Unlock()
	}
	return c.ids[name]
}

// time runs fn and returns how long it took. On a non-nil chain it also
// records the call as span name (layer/entry point) under parent ("" for
// the outermost span) with the counts fn returns; a nil chain is how a
// replay that belongs to no trace is timed by the same code.
func (c *chain) time(layer, name, parent string, fn func() map[string]float64) time.Duration {
	start := time.Now()
	counts := fn()
	end := time.Now()
	c.add(layer, name, parent, start, end, counts)
	return end.Sub(start)
}

// record adds a span whose duration was measured elsewhere, ending now.
func (c *chain) record(layer, name, parent string, d time.Duration) {
	end := time.Now()
	c.add(layer, name, parent, end.Add(-d), end, nil)
}

func (c *chain) add(layer, name, parent string, start, end time.Time, counts map[string]float64) {
	if c == nil {
		return
	}
	s := span{
		TraceID: c.trace, SpanID: c.id(name), Layer: layer, Name: name,
		StartNs: int64(start.Sub(c.tr.epoch)), EndNs: int64(end.Sub(c.tr.epoch)), Counts: counts,
	}
	if parent != "" {
		s.ParentID = c.id(parent)
	}
	c.tr.mu.Lock()
	c.tr.spans = append(c.tr.spans, s)
	c.tr.mu.Unlock()
}

// selfTimes attributes the duration of every outermost span among
// spans to the layers beneath it and returns the total per layer. A
// layer's self time is its span's duration minus the part of that
// interval its children cover. Children were replayed one after the
// other; where their sum exceeds the parent's interval — the parent ran
// them in parallel, or a replay drew a slower sample — their coverage
// is scaled to fit, so the self times of one trace always sum to the
// duration of its outermost span.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.ParentID] = append(children[s.ParentID], s)
	}
	out := make(map[string]time.Duration)
	var assign func(s span, budget float64)
	assign = func(s span, budget float64) {
		var covered float64
		kids := children[s.SpanID]
		for _, k := range kids {
			covered += float64(k.dur())
		}
		scale := 1.0
		if covered > budget && covered > 0 {
			scale = budget / covered
		}
		out[s.Layer] += time.Duration(budget - covered*scale)
		for _, k := range kids {
			assign(k, float64(k.dur())*scale)
		}
	}
	for _, root := range children[0] {
		assign(root, float64(root.dur()))
	}
	return out
}

// shares turns per-layer self times into fractions of their sum.
func shares(self map[string]time.Duration) map[string]float64 {
	var total time.Duration
	for _, d := range self {
		total += d
	}
	out := make(map[string]float64, len(self))
	if total == 0 {
		return out
	}
	for layer, d := range self {
		out[layer] = float64(d) / float64(total)
	}
	return out
}
