package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into the system: its name,
// interval (nanoseconds since the run started) and the span that caused it.
// Spans live in memory and are written out once, when the run ends.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// Dur returns the span's length.
func (s Span) Dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer records spans when on. Timing itself never depends on it: a timed
// call always measures its own duration, and tracing only decides whether
// the interval is also kept.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	next  int
	spans []Span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// active is a span that has started and not yet ended.
type active struct {
	t      *tracer
	id     int
	parent int
	name   string
	start  time.Time
}

// begin starts a span under parent (0 for a root). With tracing off it only
// reads the clock.
func (t *tracer) begin(name string, parent int) *active {
	a := &active{t: t, parent: parent, name: name}
	if t.on {
		t.mu.Lock()
		t.next++
		a.id = t.next
		t.mu.Unlock()
	}
	a.start = time.Now()
	return a
}

// end closes the span and returns its duration.
func (a *active) end() time.Duration {
	now := time.Now()
	a.t.add(a.id, a.parent, a.name, a.start, now)
	return now.Sub(a.start)
}

// add records a span whose interval was measured elsewhere (id 0 mints a
// fresh one). No-op with tracing off.
func (t *tracer) add(id, parent int, name string, start, end time.Time) int {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		t.next++
		id = t.next
	}
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name,
		StartNS: int64(start.Sub(t.t0)), EndNS: int64(end.Sub(t.t0))})
	return id
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its children cover.
func selfTimes(spans []Span) map[string]time.Duration {
	child := map[int]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.Dur()
		}
	}
	self := map[string]time.Duration{}
	for _, s := range spans {
		self[s.Name] += s.Dur() - child[s.ID]
	}
	return self
}

// byName returns the durations of every span called name.
func byName(spans []Span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.Dur())
		}
	}
	return out
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
