package obs

import (
	"bytes"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// goldenRegistry builds a registry with every primitive and deterministic
// values, so the rendered exposition is byte-stable.
func goldenRegistry() *Registry {
	r := NewRegistry()
	c := r.Counter("demo_requests_total", "Requests served.")
	c.Add(41)
	c.Inc()
	v := r.CounterVec("demo_solves_total", "Solves by algorithm.", "algorithm")
	v.With("BLS").Add(7)
	v.With("ALS").Add(3)
	v.With(`we"ird\nam
e`).Inc() // exercises label escaping
	h := r.Histogram("demo_latency_seconds", "Latency with a\nnewline in help.", []float64{0.1, 0.5, 2.5})
	for _, x := range []float64{0.05, 0.05, 0.3, 1, 10} {
		h.Observe(x)
	}
	hv := r.HistogramVec("demo_phase_seconds", "Phase latency by phase.", []float64{0.01, 0.1, 1}, "phase")
	for _, x := range []float64{0.005, 0.05, 0.5} {
		hv.With("queue").Observe(x)
	}
	hv.With("solve").Observe(2)
	r.GaugeFunc("demo_temperature", "A gauge.", func() float64 { return 36.5 })
	g := r.GaugeVec("demo_inflight", "In-flight work by lane.", "lane")
	g.With("fast").Add(3)
	g.With("slow").Add(5)
	g.With("slow").Add(-1)
	return r
}

// TestWritePrometheusGolden locks the exposition byte-for-byte against the
// checked-in golden file, and cross-checks it with ValidateExposition so
// the golden itself can never drift into invalid text format.
func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("rendered exposition invalid: %v\n%s", err, buf.Bytes())
	}
	golden := filepath.Join("testdata", "exposition.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden file:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestExpositionStructure asserts the invariants the scrape contract
// promises: HELP/TYPE pairs for every family, monotone cumulative buckets,
// and a le="+Inf" bucket equal to _count.
func TestExpositionStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP demo_latency_seconds",
		"# TYPE demo_latency_seconds histogram",
		`demo_latency_seconds_bucket{le="+Inf"} 5`,
		"demo_latency_seconds_count 5",
		`demo_solves_total{algorithm="BLS"} 7`,
		"# TYPE demo_temperature gauge",
		"# TYPE demo_phase_seconds histogram",
		`demo_phase_seconds_bucket{phase="queue",le="+Inf"} 3`,
		`demo_phase_seconds_count{phase="queue"} 3`,
		`demo_phase_seconds_bucket{phase="solve",le="1"} 0`,
		`demo_phase_seconds_count{phase="solve"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestValidateExpositionRejectsMalformed: the validator must catch the
// failure shapes it exists for.
func TestValidateExpositionRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		text string
	}{
		{"sample without TYPE", "foo_total 3\n"},
		{"TYPE without HELP", "# TYPE foo_total counter\nfoo_total 3\n"},
		{"unknown kind", "# HELP foo_total x\n# TYPE foo_total summary\nfoo_total 3\n"},
		{"duplicate family", "# HELP a x\n# TYPE a counter\na 1\n# HELP a x\n# TYPE a counter\na 1\n"},
		{"non-cumulative buckets", "# HELP h x\n# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="+Inf"} 3` + "\nh_sum 1\nh_count 3\n"},
		{"missing +Inf", "# HELP h x\n# TYPE h histogram\n" +
			`h_bucket{le="1"} 2` + "\nh_sum 1\nh_count 2\n"},
		{"+Inf != count", "# HELP h x\n# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 2` + "\nh_sum 1\nh_count 3\n"},
		{"unparseable le", "# HELP h x\n# TYPE h histogram\n" +
			`h_bucket{le="wat"} 2` + "\n" + `h_bucket{le="+Inf"} 2` + "\nh_sum 1\nh_count 2\n"},
		{"unparseable value", "# HELP f x\n# TYPE f counter\nf nope\n"},
	}
	for _, tc := range cases {
		if err := ValidateExposition([]byte(tc.text)); err == nil {
			t.Errorf("%s: accepted:\n%s", tc.name, tc.text)
		}
	}
}

// TestHistogramConcurrentObserve hammers one histogram from many
// goroutines; under -race this proves Observe is data-race free, and the
// exact _count/_sum equalities prove no observation is lost or double
// counted (the values are dyadic rationals, so the float sum is exact in
// any addition order).
func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_h", "x", []float64{1, 2, 4})
	const goroutines, per = 16, 2000
	vals := []float64{0.5, 1.5, 2.25, 8}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(vals[(g+i)%len(vals)])
			}
		}(g)
	}
	wg.Wait()

	const total = goroutines * per
	if h.Count() != total {
		t.Errorf("count %d != %d", h.Count(), total)
	}
	var wantSum float64
	for _, v := range vals {
		wantSum += v * total / float64(len(vals))
	}
	if h.Sum() != wantSum {
		t.Errorf("sum %v != %v", h.Sum(), wantSum)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Errorf("exposition after concurrent observes invalid: %v\n%s", err, buf.Bytes())
	}
	// Every bucket boundary is deterministic too: per value class,
	// total/len(vals) observations landed in a known bucket.
	if !strings.Contains(buf.String(), "t_h_count 32000") {
		t.Errorf("missing exact count in exposition:\n%s", buf.String())
	}
}

// TestCounterVecConcurrentWith: concurrent first-touch of the same and
// different label values must neither race nor lose increments.
func TestCounterVecConcurrentWith(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("t_v", "x", "who")
	labels := []string{"a", "b", "c"}
	const goroutines, per = 12, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				v.With(labels[(g+i)%len(labels)]).Inc()
			}
		}(g)
	}
	wg.Wait()
	var sum int64
	v.Each(func(_ []string, n int64) { sum += n })
	if sum != goroutines*per {
		t.Errorf("total %d != %d", sum, goroutines*per)
	}
}

// TestCounterVecDelete: a deleted child disappears from Each and the
// exposition, and a later With starts a fresh series at zero.
func TestCounterVecDelete(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("t_del", "x", "who")
	v.With("keep").Add(3)
	v.With("drop").Add(5)
	v.Delete("drop")
	v.Delete("never-existed") // no-op

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `t_del{who="keep"} 3`) {
		t.Errorf("kept series missing:\n%s", out)
	}
	if strings.Contains(out, "drop") {
		t.Errorf("deleted series still exposed:\n%s", out)
	}
	if got := v.With("drop").Value(); got != 0 {
		t.Errorf("recreated child starts at %d, want 0", got)
	}
}

// TestRegistryPanics: misuse (duplicate names, bad names, reserved labels,
// bad buckets) must fail loudly at registration time, not at scrape time.
// TestGaugeVec covers the labeled-gauge family: Add returns the new value
// (the atomic reserve-then-check contract admission control relies on),
// Delete retires a series from the exposition, and concurrent With/Add on
// one child never loses an update.
func TestGaugeVec(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("jobs_inflight", "Jobs in flight by queue.", "queue")

	if got := v.With("a").Add(1); got != 1 {
		t.Errorf("first Add returned %d, want 1", got)
	}
	if got := v.With("a").Add(2); got != 3 {
		t.Errorf("second Add returned %d, want 3", got)
	}
	if got := v.With("a").Add(-3); got != 0 {
		t.Errorf("drain returned %d, want 0", got)
	}
	v.With("b").Set(7)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, buf.Bytes())
	}
	for _, want := range []string{
		"# TYPE jobs_inflight gauge",
		`jobs_inflight{queue="a"} 0`,
		`jobs_inflight{queue="b"} 7`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, buf.String())
		}
	}

	v.Delete("b")
	v.Delete("nonexistent") // no-op
	buf.Reset()
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `queue="b"`) {
		t.Errorf("deleted series still rendered:\n%s", buf.String())
	}

	// Concurrent increments across goroutines must all land.
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				v.With("hot").Add(1)
			}
		}()
	}
	wg.Wait()
	if got := v.With("hot").Value(); got != workers*perWorker {
		t.Errorf("hot gauge %d, want %d", got, workers*perWorker)
	}

	// Label arity mismatches panic like CounterVec's.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("With with wrong arity did not panic")
			}
		}()
		v.With("a", "b")
	}()
}

// TestHistogramVecConcurrent hammers two children of one labeled histogram
// family from many goroutines: no observation may be lost (exact per-series
// _count equalities), the rendered exposition must stay valid per series,
// and concurrent first-touch With of the same label set must not race.
func TestHistogramVecConcurrent(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("t_hv", "x", []float64{1, 2, 4}, "phase")
	phases := []string{"queue", "solve"}
	const goroutines, per = 12, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				v.With(phases[(g+i)%len(phases)]).Observe(float64(i % 5))
			}
		}(g)
	}
	wg.Wait()

	var total int64
	v.Each(func(_ []string, h *Histogram) { total += h.Count() })
	if total != goroutines*per {
		t.Errorf("total observations %d, want %d", total, goroutines*per)
	}
	if got := v.With("queue").Count() + v.With("solve").Count(); got != goroutines*per {
		t.Errorf("per-series counts sum to %d, want %d", got, goroutines*per)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Errorf("exposition after concurrent observes invalid: %v\n%s", err, buf.Bytes())
	}
	// Label arity mismatches panic like CounterVec's.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("With with wrong arity did not panic")
			}
		}()
		v.With("a", "b")
	}()
}

func TestRegistryPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Counter("ok_total", "x")
	expectPanic("dup name", func() { r.Counter("ok_total", "x") })
	expectPanic("bad metric name", func() { r.Counter("0bad", "x") })
	expectPanic("reserved le label", func() { r.CounterVec("v_total", "x", "le") })
	expectPanic("unsorted buckets", func() { r.Histogram("h1", "x", []float64{2, 1}) })
	expectPanic("empty buckets", func() { r.Histogram("h2", "x", nil) })
	expectPanic("wrong label arity", func() { r.CounterVec("v2_total", "x", "a").With("1", "2") })
	expectPanic("bad ExpBuckets", func() { ExpBuckets(0, 2, 3) })
}

// TestHandlerContentType: the /metrics handler must advertise the text
// exposition version Prometheus scrapers negotiate on.
func TestHandlerContentType(t *testing.T) {
	rec := httptest.NewRecorder()
	goldenRegistry().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if got := rec.Header().Get("Content-Type"); got != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content type %q", got)
	}
	if err := ValidateExposition(rec.Body.Bytes()); err != nil {
		t.Errorf("handler output invalid: %v", err)
	}
}

// TestRequestIDs: unique and of the legacy shape.
func TestRequestIDs(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b {
		t.Errorf("consecutive IDs equal: %s", a)
	}
	if len(a) != len("00000000-000000") {
		t.Errorf("unexpected ID shape %q", a)
	}
}
