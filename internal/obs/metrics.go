// Package obs is the reproduction's stdlib-only observability toolkit:
// lock-free metrics primitives with a hand-rolled Prometheus text-format
// exposition, per-request ID generation, structured logging helpers over
// log/slog, and the two core.Tracer implementations: the JSONL trajectory
// writer and the serving layer's restart tracer (spans and Debug lines).
//
// The package deliberately has no third-party dependencies: the repo's
// contract is that go.mod stays dependency-free, so the subset of the
// Prometheus data model needed here — counters, labeled counter families,
// fixed-bucket histograms, gauge callbacks — is implemented directly
// against the text exposition format (version 0.0.4).
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// A Counter is a monotonically increasing metric. The zero value is ready
// to use; all methods are safe for concurrent use and lock-free.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n, which must be non-negative for the exposition to remain a
// valid Prometheus counter.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// A CounterVec is a family of Counters keyed by label values. Obtaining a
// child with With takes a read lock on first access per goroutine-visible
// key and is lock-free afterwards if the caller caches the returned
// *Counter; the child counters themselves are lock-free.
type CounterVec struct {
	name   string
	help   string
	labels []string

	mu       sync.RWMutex
	children map[string]*vecChild
}

type vecChild struct {
	values []string
	c      Counter
}

// With returns the child counter for the given label values (one per label
// name, in declaration order), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %s has %d labels, got %d values", v.name, len(v.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	v.mu.RLock()
	ch := v.children[key]
	v.mu.RUnlock()
	if ch == nil {
		v.mu.Lock()
		if ch = v.children[key]; ch == nil {
			ch = &vecChild{values: append([]string(nil), values...)}
			v.children[key] = ch
		}
		v.mu.Unlock()
	}
	return &ch.c
}

// Delete removes the child with the given label values from the family, so
// a retired label value (e.g. a catalog instance that was deleted) stops
// appearing in the exposition. Deleting an absent child is a no-op. Callers
// holding the *Counter from a previous With keep a detached counter; a
// later With for the same values starts a fresh child at zero, which is the
// Prometheus reset semantic for a series that disappeared.
func (v *CounterVec) Delete(values ...string) {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %s has %d labels, got %d values", v.name, len(v.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	delete(v.children, key)
	v.mu.Unlock()
}

// Each calls f for every child in the family, in unspecified order, with
// the child's label values and current count.
func (v *CounterVec) Each(f func(values []string, count int64)) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	for _, ch := range v.children {
		f(ch.values, ch.c.Value())
	}
}

// A Gauge is an integer gauge: a value that can go up and down. The zero
// value is ready to use; all methods are safe for concurrent use and
// lock-free.
type Gauge struct {
	v atomic.Int64
}

// Add adds delta (which may be negative) and returns the new value. The
// return value lets admission-control callers combine the reservation and
// the limit check in one atomic step: reserve with Add(1), and if the
// result exceeds the cap, roll back with Add(-1) and reject — the admitted
// occupancy never exceeds the cap.
func (g *Gauge) Add(delta int64) int64 { return g.v.Add(delta) }

// Set replaces the value.
func (g *Gauge) Set(x int64) { g.v.Store(x) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// A GaugeVec is a family of Gauges keyed by label values, mirroring
// CounterVec: With creates children on first use, Delete retires a label
// set from the exposition, and the children themselves are lock-free.
type GaugeVec struct {
	name   string
	help   string
	labels []string

	mu       sync.RWMutex
	children map[string]*gaugeChild
}

type gaugeChild struct {
	values []string
	g      Gauge
}

// With returns the child gauge for the given label values (one per label
// name, in declaration order), creating it on first use.
func (v *GaugeVec) With(values ...string) *Gauge {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %s has %d labels, got %d values", v.name, len(v.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	v.mu.RLock()
	ch := v.children[key]
	v.mu.RUnlock()
	if ch == nil {
		v.mu.Lock()
		if ch = v.children[key]; ch == nil {
			ch = &gaugeChild{values: append([]string(nil), values...)}
			v.children[key] = ch
		}
		v.mu.Unlock()
	}
	return &ch.g
}

// Delete removes the child with the given label values, so a retired label
// value stops appearing in the exposition. Deleting an absent child is a
// no-op; callers holding the *Gauge keep a detached gauge.
func (v *GaugeVec) Delete(values ...string) {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %s has %d labels, got %d values", v.name, len(v.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	delete(v.children, key)
	v.mu.Unlock()
}

// Each calls f for every child in the family, in unspecified order, with
// the child's label values and current value.
func (v *GaugeVec) Each(f func(values []string, value int64)) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	for _, ch := range v.children {
		f(ch.values, ch.g.Value())
	}
}

// atomicFloat is a float64 updated with a CAS loop on its bit pattern.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) Add(x float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+x)) {
			return
		}
	}
}

func (f *atomicFloat) Value() float64 { return math.Float64frombits(f.bits.Load()) }

// A Histogram counts observations into fixed buckets. Observe is lock-free
// (two atomic adds and one CAS loop for the sum), so it is safe on solver
// and request hot paths. Bucket bounds are upper bounds in Prometheus "le"
// semantics; an implicit +Inf bucket catches everything beyond the last
// bound.
type Histogram struct {
	bounds  []float64 // strictly increasing, finite
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomicFloat
}

// Observe records one observation.
func (h *Histogram) Observe(x float64) {
	// First bucket whose upper bound covers x; len(bounds) is +Inf.
	i := sort.SearchFloat64s(h.bounds, x)
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(x)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// A HistogramVec is a family of Histograms keyed by label values — one
// bucket ladder per label set (e.g. one per solve phase). With mirrors
// CounterVec.With: first touch of a label set takes the write lock, and
// callers that cache the returned *Histogram observe lock-free.
type HistogramVec struct {
	name   string
	help   string
	labels []string
	bounds []float64

	mu       sync.RWMutex
	children map[string]*histChild
}

type histChild struct {
	values []string
	h      *Histogram
}

// With returns the child histogram for the given label values (one per
// label name, in declaration order), creating it on first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %s has %d labels, got %d values", v.name, len(v.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	v.mu.RLock()
	ch := v.children[key]
	v.mu.RUnlock()
	if ch == nil {
		v.mu.Lock()
		if ch = v.children[key]; ch == nil {
			ch = &histChild{
				values: append([]string(nil), values...),
				h: &Histogram{
					bounds:  v.bounds,
					buckets: make([]atomic.Int64, len(v.bounds)+1),
				},
			}
			v.children[key] = ch
		}
		v.mu.Unlock()
	}
	return ch.h
}

// Each calls f for every child in the family, in unspecified order, with
// the child's label values and histogram.
func (v *HistogramVec) Each(f func(values []string, h *Histogram)) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	for _, ch := range v.children {
		f(ch.values, ch.h)
	}
}

// ExpBuckets returns n strictly increasing bucket bounds starting at start
// and growing by factor: start, start·factor, …, start·factor^(n−1).
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = start
		start *= factor
	}
	return b
}

// A Registry holds named metric families and renders them in Prometheus
// text exposition format. Families are rendered in registration order,
// which keeps the output stable for golden tests and human readers.
type Registry struct {
	mu       sync.Mutex
	families []family
	names    map[string]bool
}

type family struct {
	name string
	help string
	kind string // "counter", "gauge", "histogram"
	// exactly one of the following is set
	counter *Counter
	vec     *CounterVec
	gvec    *GaugeVec
	hist    *Histogram
	hvec    *HistogramVec
	gauge   func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

func (r *Registry) register(f family) {
	if !validMetricName(f.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", f.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[f.name] {
		panic(fmt.Sprintf("obs: metric %q registered twice", f.name))
	}
	r.names[f.name] = true
	r.families = append(r.families, f)
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(family{name: name, help: help, kind: "counter", counter: c})
	return c
}

// CounterVec registers and returns a new labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	for _, l := range labels {
		if !validLabelName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q", l))
		}
	}
	v := &CounterVec{
		name:     name,
		help:     help,
		labels:   append([]string(nil), labels...),
		children: make(map[string]*vecChild),
	}
	r.register(family{name: name, help: help, kind: "counter", vec: v})
	return v
}

// GaugeVec registers and returns a new labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	for _, l := range labels {
		if !validLabelName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q", l))
		}
	}
	v := &GaugeVec{
		name:     name,
		help:     help,
		labels:   append([]string(nil), labels...),
		children: make(map[string]*gaugeChild),
	}
	r.register(family{name: name, help: help, kind: "gauge", gvec: v})
	return v
}

// Histogram registers and returns a new fixed-bucket histogram. Bounds
// must be finite and strictly increasing; the +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsInf(b, 0) || math.IsNaN(b) || (i > 0 && b <= bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram %q bounds must be finite and strictly increasing", name))
		}
	}
	h := &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
	r.register(family{name: name, help: help, kind: "histogram", hist: h})
	return h
}

// HistogramVec registers and returns a new labeled histogram family: one
// fixed-bucket ladder per label set, every series sharing the same bounds
// (finite, strictly increasing; +Inf implicit).
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsInf(b, 0) || math.IsNaN(b) || (i > 0 && b <= bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram %q bounds must be finite and strictly increasing", name))
		}
	}
	for _, l := range labels {
		if !validLabelName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q", l))
		}
	}
	v := &HistogramVec{
		name:     name,
		help:     help,
		labels:   append([]string(nil), labels...),
		bounds:   append([]float64(nil), bounds...),
		children: make(map[string]*histChild),
	}
	r.register(family{name: name, help: help, kind: "histogram", hvec: v})
	return v
}

// GaugeFunc registers a gauge whose value is read by calling f at scrape
// time. f must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.register(family{name: name, help: help, kind: "gauge", gauge: f})
}

// WritePrometheus renders every registered family in text exposition
// format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]family(nil), r.families...)
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		switch {
		case f.counter != nil:
			fmt.Fprintf(bw, "%s %d\n", f.name, f.counter.Value())
		case f.vec != nil:
			writeVec(bw, f.vec)
		case f.gvec != nil:
			writeGaugeVec(bw, f.gvec)
		case f.hist != nil:
			writeHistogram(bw, f.name, f.hist)
		case f.hvec != nil:
			writeHistogramVec(bw, f.hvec)
		case f.gauge != nil:
			fmt.Fprintf(bw, "%s %s\n", f.name, fmtFloat(f.gauge()))
		}
	}
	return bw.Flush()
}

func writeVec(w io.Writer, v *CounterVec) {
	v.mu.RLock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ch := v.children[k]
		pairs := make([]string, len(v.labels))
		for i, l := range v.labels {
			pairs[i] = l + `="` + escapeLabelValue(ch.values[i]) + `"`
		}
		fmt.Fprintf(w, "%s{%s} %d\n", v.name, strings.Join(pairs, ","), ch.c.Value())
	}
	v.mu.RUnlock()
}

func writeGaugeVec(w io.Writer, v *GaugeVec) {
	v.mu.RLock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ch := v.children[k]
		pairs := make([]string, len(v.labels))
		for i, l := range v.labels {
			pairs[i] = l + `="` + escapeLabelValue(ch.values[i]) + `"`
		}
		fmt.Fprintf(w, "%s{%s} %d\n", v.name, strings.Join(pairs, ","), ch.g.Value())
	}
	v.mu.RUnlock()
}

func writeHistogram(w io.Writer, name string, h *Histogram) {
	var cum int64
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, fmtFloat(b), cum)
	}
	cum += h.buckets[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %s\n", name, fmtFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
}

// writeHistogramVec renders one bucket ladder per label set, label sets in
// sorted order, each with its own _sum and _count (the per-series triple
// ValidateExposition checks).
func writeHistogramVec(w io.Writer, v *HistogramVec) {
	v.mu.RLock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ch := v.children[k]
		pairs := make([]string, len(v.labels))
		for i, l := range v.labels {
			pairs[i] = l + `="` + escapeLabelValue(ch.values[i]) + `"`
		}
		labels := strings.Join(pairs, ",")
		h := ch.h
		var cum int64
		for i, b := range h.bounds {
			cum += h.buckets[i].Load()
			fmt.Fprintf(w, "%s_bucket{%s,le=\"%s\"} %d\n", v.name, labels, fmtFloat(b), cum)
		}
		cum += h.buckets[len(h.bounds)].Load()
		fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", v.name, labels, cum)
		fmt.Fprintf(w, "%s_sum{%s} %s\n", v.name, labels, fmtFloat(h.Sum()))
		fmt.Fprintf(w, "%s_count{%s} %d\n", v.name, labels, h.Count())
	}
	v.mu.RUnlock()
}

// Handler returns an http.Handler serving the exposition (a /metrics
// endpoint).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

func fmtFloat(x float64) string {
	return strconv.FormatFloat(x, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || s == "le" { // "le" is reserved for histogram buckets
		return false
	}
	for i, c := range s {
		alpha := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}
