package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/catalog"
)

// printed is the result line as the benchmark prints it.
type printed struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// runShort runs one short benchmark run and decodes its last output line.
func runShort(t *testing.T, args ...string) (int, printed) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"--seconds", "1", "--out", t.TempDir()}, args...)
	code, err := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var p printed
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &p); jerr != nil {
		t.Fatalf("run %v: exit %d, err %v, last line not a result: %v\nstderr:\n%s", args, code, err, jerr, stderr.String())
	}
	return code, p
}

// busy names, per workload, per-layer metrics that must be non-zero there:
// the layers that workload exists to exercise.
var busy = map[string][]string{
	"paper-scale": {"dataset.stream_s", "coverage.compress_s", "market.build_s",
		"core.solve_ms.G-Order", "core.solve_ms.G-Global", "core.celf_hits", "core.celf_hit_ratio",
		"coverage.gain_ns_per_entry", "ledger.setup_accounted_frac", "ledger.solve_accounted_frac"},
	"solve-batch": {"dataset.generate_s", "influence.coverage_s", "core.solve_ms.BLS", "core.evals.ALS",
		"core.restart_ms", "core.pool_speedup", "core.celf_rescans", "coverage.swap_ns_per_entry",
		"ledger.solve_accounted_frac"},
	"serve-mixed": {"server.solve_ms.p95", "server.queue_ms.p95", "server.encode_ms.p50",
		"core.solve_ms.BLS", "core.restart_ms", "workload.gen_lag_p95_ms", "server.worker_busy_frac",
		"ledger.latency_accounted_frac", "ledger.setup_accounted_frac",
		"catalog.patch_ms", "server.patch_ms.p50", "core.warm_started_frac", "core.warm_evals_ratio",
		"solvecache.invalidations"},
}

func TestEveryMetricEmittedWithUnit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []string{"0", "1"} {
			code, p := runShort(t, "--workload", w.name, "--seed", "3", "--trace", traced)
			if code != 0 || !p.Correct || p.Attempted < 1 {
				t.Fatalf("%s trace=%s: exit %d, correct %v, attempted %d", w.name, traced, code, p.Correct, p.Attempted)
			}
			defs := endToEnd
			if traced == "1" {
				defs = perLayer
			}
			if len(p.Metrics) != len(defs) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w.name, traced, len(p.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := p.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%s: metric %s missing", w.name, traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace=%s: metric %s unit %q, want %q", w.name, traced, d.Name, m.Unit, d.Unit)
				case traced == "0" && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, m.Value)
				}
			}
			if traced == "1" {
				for _, name := range busy[w.name] {
					if p.Metrics[name].Value <= 0 {
						t.Errorf("%s: per-layer metric %s = %v, want > 0", w.name, name, p.Metrics[name].Value)
					}
				}
			}
		}
	}
}

func TestTraceDigestFollowsSeed(t *testing.T) {
	for _, c := range []serveConfig{serveMixed, serveChurn} {
		digest := func(seed uint64) string {
			tr, err := c.trace(seed, 2)
			if err != nil {
				t.Fatal(err)
			}
			return tr.SHA256()
		}
		if a, b := digest(7), digest(7); a != b {
			t.Errorf("equal seeds gave trace digests %s and %s", a, b)
		}
		if a, b := digest(7), digest(8); a == b {
			t.Errorf("seeds 7 and 8 gave the same trace digest %s", a)
		}
	}
	items := func(variant int) string {
		s, err := setupBatch(newTracer(false), 0, variant)
		if err != nil {
			t.Fatal(err)
		}
		return itemsDigest("solve-batch", s.items)
	}
	if a, b := items(1), items(1); a != b {
		t.Errorf("equal variants gave input digests %s and %s", a, b)
	}
	if a, b := items(1), items(2); a == b {
		t.Errorf("variants 1 and 2 gave the same input digest %s", a)
	}
}

// TestServeMixedDealsTheSameRequests pins that serve-mixed's seed moves
// only the order and timing of its solves: every seed offers the same
// requests, each (instance, algorithm) pair an equal share, with a
// minority repeating an earlier tuple.
func TestServeMixedDealsTheSameRequests(t *testing.T) {
	population := func(seed uint64) map[string]int {
		tr, err := serveMixed.trace(seed, 6)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[string]int{}
		for _, r := range tr {
			counts[fmt.Sprintf("%s/%s/%d", r.Instance, r.Algorithm, r.Seed)]++
		}
		return counts
	}
	a, b := population(7), population(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("seeds 7 and 8 offered different requests:\n%v\n%v", a, b)
	}
	perPair := map[string]int{}
	solves, repeats := 0, 0
	for k, n := range a {
		perPair[k[:strings.LastIndex(k, "/")]] += n
		solves += n
		repeats += n - 1
	}
	if len(perPair) != len(fleet)*len(algorithms) {
		t.Fatalf("%d (instance, algorithm) pairs offered, want %d", len(perPair), len(fleet)*len(algorithms))
	}
	for pair, n := range perPair {
		if n != solves/len(perPair) {
			t.Errorf("%s offered %d times, want %d", pair, n, solves/len(perPair))
		}
	}
	if repeats == 0 || 2*repeats >= solves {
		t.Errorf("%d of %d solves repeat a tuple, want a minority", repeats, solves)
	}
}

func TestWrongExpectedRegretFailsTheRun(t *testing.T) {
	s, err := setupBatch(newTracer(false), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	key := s.items[0].key()
	table := expected["solve-batch"]
	want, ok := table[key]
	if !ok {
		t.Fatalf("no recorded outcome for %s", key)
	}
	t.Cleanup(func() { table[key] = want })
	table[key] = outcome{Regret: want.Regret + 1, Evals: want.Evals}

	code, p := runShort(t, "--workload", "solve-batch", "--seed", "3", "--trace", "0")
	if code == 0 || p.Correct || p.Failed == 0 {
		t.Fatalf("a wrong recorded regret gave exit %d, correct %v, failed %d; want a failed run", code, p.Correct, p.Failed)
	}
}

// TestFleetBuildMatchesCatalog pins that the layer-by-layer build is the
// instance catalog.Build makes from the same Spec.
func TestFleetBuildMatchesCatalog(t *testing.T) {
	for _, spec := range fleet {
		got, err := buildInstance(newTracer(false), 0, spec)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := catalog.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got.inst.NumAdvertisers() != want.NumAdvertisers() ||
			got.universe.NumIDs() != want.Universe().NumIDs() ||
			got.inst.Model().Kind() != want.Model().Kind() {
			t.Fatalf("%s: built instance differs from catalog.Build", spec.Name)
		}
		for i := 0; i < want.NumAdvertisers(); i++ {
			if got.inst.Advertiser(i) != want.Advertiser(i) {
				t.Fatalf("%s: advertiser %d is %+v, catalog.Build has %+v", spec.Name, i, got.inst.Advertiser(i), want.Advertiser(i))
			}
		}
		for _, alg := range algorithms {
			a, err := solve(solveItem{inst: got.inst, alg: alg, seed: 1, restarts: 1, workers: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := solve(solveItem{inst: want, alg: alg, seed: 1, restarts: 1, workers: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if outcomeOf(a) != outcomeOf(b) {
				t.Fatalf("%s %s: %+v on the built instance, %+v on catalog.Build's", spec.Name, alg, outcomeOf(a), outcomeOf(b))
			}
		}
	}
}

// TestBenchmarkJSONMatchesCode pins BENCHMARK.json's workloads and metrics
// to the ones this program runs and prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program prints %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
