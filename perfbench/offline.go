package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/coverage"
)

// The offline workloads run a fixed closed-loop batch of library solves —
// each solve starts when the previous one returns — repeated until the run's
// measuring time is spent. Every solve must reproduce the (regret, evals)
// recorded in expected.go for its (instance, algorithm, seed, restarts).

// solveItem is one solve of a batch.
type solveItem struct {
	instance string
	inst     *core.Instance
	alg      string
	seed     uint64
	restarts int
	workers  int
}

// key identifies the item's recorded outcome. Workers is left out: results
// are identical for every worker count.
func (it solveItem) key() string {
	return fmt.Sprintf("%s/%s/seed=%d/restarts=%d", it.instance, it.alg, it.seed, it.restarts)
}

// outcome is what a solve must reproduce.
type outcome struct {
	Regret float64
	Evals  int64
}

func outcomeOf(res *core.Anytime) outcome {
	return outcome{Regret: res.TotalRegret, Evals: res.Evals}
}

// solve runs one item through the library's anytime entry point.
func solve(it solveItem, t core.Tracer) (*core.Anytime, error) {
	alg, err := core.AlgorithmByNameOpts(it.alg, core.LocalSearchOptions{
		Seed: it.seed, Restarts: it.restarts, Workers: it.workers, Tracer: t,
	})
	if err != nil {
		return nil, err
	}
	return core.SolveAnytime(context.Background(), alg, it.inst), nil
}

// checkOutcome compares a solve against the recorded table.
func checkOutcome(table map[string]outcome, it solveItem, got outcome) error {
	want, ok := table[it.key()]
	if !ok {
		return fmt.Errorf("%s: no recorded outcome", it.key())
	}
	if got != want {
		return fmt.Errorf("%s: got regret %v evals %d, recorded regret %v evals %d",
			it.key(), got.Regret, got.Evals, want.Regret, want.Evals)
	}
	return nil
}

// offlineSetup is what an offline workload's set-up produced.
type offlineSetup struct {
	items []solveItem
	// kernelUniverse is the corridor universe the Counter kernels are
	// timed on; built lists the instances for the coverage ledger.
	kernelUniverse *coverage.Universe
	built          []*builtInstance
	// guard, when set, validates the warm-up batch's results.
	guard func(items []solveItem, res []*core.Anytime) error
}

// solve-batch runs, per fleet instance, one ALS solve and batchBLSSeeds BLS
// solves at batchRestarts restarts (six restart slots: three rounds of the
// two workers). Many BLS seeds average out how much work one seed's
// restarts happen to take, and keep the batch's median solve inside the
// BLS cluster rather than between ALS and BLS.
const (
	batchRestarts = 5
	batchBLSSeeds = 5
)

func setupPaper(tr *tracer, parent, variant int) (*offlineSetup, error) {
	ps, err := buildPaper(tr, parent, variant)
	if err != nil {
		return nil, err
	}
	s := &offlineSetup{kernelUniverse: ps.built.universe, built: []*builtInstance{ps.built}}
	for _, m := range ps.markets {
		for _, alg := range []string{"G-Order", "G-Global"} {
			s.items = append(s.items, solveItem{instance: m.name, inst: m.inst, alg: alg, workers: 1})
		}
	}
	s.guard = paperGuard
	return s, nil
}

// paperGuard refuses a degenerate market: on each market the two greedy
// solvers must disagree and at least one advertiser must be satisfied.
func paperGuard(items []solveItem, res []*core.Anytime) error {
	regrets := map[string][]float64{}
	satisfied := map[string]int{}
	for i, it := range items {
		regrets[it.instance] = append(regrets[it.instance], res[i].TotalRegret)
		satisfied[it.instance] += res[i].Plan.SatisfiedCount()
	}
	for name, rs := range regrets {
		if len(rs) != 2 || rs[0] == rs[1] {
			return fmt.Errorf("paper-scale market %s is degenerate: G-Order and G-Global regrets %v do not differ", name, rs)
		}
		if satisfied[name] == 0 {
			return fmt.Errorf("paper-scale market %s is degenerate: no advertiser satisfied", name)
		}
	}
	return nil
}

func setupBatch(tr *tracer, parent, variant int) (*offlineSetup, error) {
	built, _, err := buildFleet(tr, parent)
	if err != nil {
		return nil, err
	}
	s := &offlineSetup{built: built, kernelUniverse: kernelFleetUniverse(built)}
	seed := uint64(1 + batchBLSSeeds*variant)
	for _, b := range built {
		s.items = append(s.items, solveItem{instance: b.spec.Name, inst: b.inst, alg: "ALS",
			seed: seed, restarts: batchRestarts, workers: 2})
		for k := uint64(0); k < batchBLSSeeds; k++ {
			s.items = append(s.items, solveItem{instance: b.spec.Name, inst: b.inst, alg: "BLS",
				seed: seed + k, restarts: batchRestarts, workers: 2})
		}
	}
	return s, nil
}

// kernelFleetUniverse is the fleet universe with the most list entries.
func kernelFleetUniverse(built []*builtInstance) *coverage.Universe {
	best := built[0]
	for _, b := range built[1:] {
		if b.corridor > best.corridor {
			best = b
		}
	}
	return best.universe
}

// restartTimer collects restart-slot durations from the solver's probes.
type restartTimer struct {
	mu    sync.Mutex
	start map[int]time.Duration
	durs  []time.Duration
}

func (r *restartTimer) tracer() core.Tracer {
	r.mu.Lock()
	r.start = map[int]time.Duration{}
	r.mu.Unlock()
	return core.TracerFuncs{
		OnRestartStart: func(slot int, elapsed time.Duration) {
			r.mu.Lock()
			r.start[slot] = elapsed
			r.mu.Unlock()
		},
		OnRestartDone: func(slot int, _ float64, _ int64, elapsed time.Duration) {
			r.mu.Lock()
			r.durs = append(r.durs, elapsed-r.start[slot])
			r.mu.Unlock()
		},
	}
}

// batchRun is the record of one pass over the items.
type batchRun struct {
	wall    time.Duration
	solves  []time.Duration
	results []*core.Anytime
}

// runBatch solves every item in order under parent. With restarts non-nil
// the local searches report their restart slots to it.
func runBatch(tr *tracer, parent int, items []solveItem, restarts *restartTimer) (*batchRun, error) {
	b := &batchRun{}
	sp := tr.begin("batch", parent)
	for _, it := range items {
		var t core.Tracer
		if restarts != nil {
			t = restarts.tracer()
		}
		s := tr.begin("core.solve."+it.alg, sp.id)
		res, err := solve(it, t)
		d := s.end()
		if err != nil {
			return nil, err
		}
		b.solves = append(b.solves, d)
		b.results = append(b.results, res)
	}
	b.wall = sp.end()
	return b, nil
}

// verifyBatch checks every result of a batch against the table.
func verifyBatch(table map[string]outcome, items []solveItem, b *batchRun) (bad int, first error) {
	for i, it := range items {
		if err := checkOutcome(table, it, outcomeOf(b.results[i])); err != nil {
			bad++
			if first == nil {
				first = err
			}
		}
	}
	return bad, first
}

// runOffline measures an offline workload.
func runOffline(o options, w workloadDef) (*result, *tracer, error) {
	variant := int(o.seed % variants)
	tr := newTracer(o.trace)
	var setupTimes []float64
	var firstSetupRSS float64
	var s *offlineSetup
	for rep := 0; rep < o.setupReps; rep++ {
		s = nil
		heapMB() // drop the previous repetition before timing the next
		sp := tr.begin("setup", 0)
		var err error
		s, err = w.offline(tr, sp.id, variant)
		d := sp.end()
		if err != nil {
			return nil, nil, err
		}
		setupTimes = append(setupTimes, secs(d))
		if rep == 0 {
			if firstSetupRSS, err = peakRSSMB(); err != nil {
				return nil, nil, err
			}
		}
	}
	res := newResult(o)
	res.digest = itemsDigest(w.name, s.items)
	res.set("setup_s", median(setupTimes))
	res.set("heap_mb", heapMB())
	resetPeakRSS()

	table := expectedFor(w.name)
	// Warm-up pass: untimed; it fills caches, runs the workload's guard and
	// gives the ledger one batch of work counts.
	warm, err := runBatch(tr, 0, s.items, nil)
	if err != nil {
		return nil, nil, err
	}
	if s.guard != nil {
		if err := s.guard(s.items, warm.results); err != nil {
			return nil, nil, err
		}
	}
	if bad, err := verifyBatch(table, s.items, warm); bad > 0 {
		res.fail(err)
	}

	rt := &restartTimer{}
	var untraced, traced []float64
	var lat []float64
	var regret, want float64
	attempted, good := 0, 0
	measure := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	// At least one pass, and in a traced run one traced and one untraced.
	minPasses := 1
	if o.trace {
		minPasses = 2
	}
	for pass := 0; pass < minPasses || time.Since(start) < measure; pass++ {
		// A traced run alternates traced and untraced passes, so the
		// tracing overhead is measured on the same work.
		tracedPass := o.trace && pass%2 == 1
		tr.on = tracedPass
		var restarts *restartTimer
		if tracedPass {
			restarts = rt
		}
		b, err := runBatch(tr, 0, s.items, restarts)
		if err != nil {
			return nil, nil, err
		}
		if tracedPass {
			traced = append(traced, secs(b.wall))
		} else {
			untraced = append(untraced, secs(b.wall))
		}
		for i, it := range s.items {
			attempted++
			got := outcomeOf(b.results[i])
			if err := checkOutcome(table, it, got); err != nil {
				res.fail(err)
				continue
			}
			good++
			lat = append(lat, float64(b.solves[i])/1e6)
			regret += got.Regret
			want += table[it.key()].Regret
		}
	}
	window := time.Since(start).Seconds()
	tr.on = o.trace
	res.attempted, res.failed = attempted, attempted-good

	if rss, err := runPeakRSSMB(firstSetupRSS); err == nil {
		res.set("peak_rss_mb", rss)
	} else {
		return nil, nil, err
	}
	res.set("solve_s", median(untraced))
	res.set("latency_p50_ms", quantile(lat, 0.50))
	res.set("latency_p95_ms", quantile(lat, 0.95))
	res.set("goodput_rps", float64(good)/window)
	res.set("ok_frac", ratio(float64(good), float64(attempted)))
	res.set("regret_ratio", ratio(regret, want))

	if o.trace {
		if err := offlineLayers(res, tr, s, warm, rt, traced, untraced); err != nil {
			return nil, nil, err
		}
	}
	return res, tr, nil
}

// offlineLayers fills the per-layer ledger of an offline traced run.
func offlineLayers(res *result, tr *tracer, s *offlineSetup, warm *batchRun, rt *restartTimer, traced, untraced []float64) error {
	spans := tr.spans
	setupLedger(res, spans, s.built)
	kernels(res, s.kernelUniverse)

	// Solver rows come from the traced passes' spans and the warm-up
	// pass's work counts (identical on every pass).
	perAlg := map[string]*algStats{}
	for i, it := range s.items {
		a := perAlg[it.alg]
		if a == nil {
			a = &algStats{}
			perAlg[it.alg] = a
		}
		a.evals = append(a.evals, float64(warm.results[i].Evals))
		a.cache = a.cache.Add(warm.results[i].Cache)
	}
	for alg, a := range perAlg {
		a.solveMS = ms(byName(spans, "core.solve."+alg))
	}
	solverLedger(res, perAlg)
	res.set("core.restart_ms", median(ms(rt.durs)))

	if err := poolCheck(res, s.items, warm.results, median(untraced)); err != nil {
		return err
	}
	res.set("obs.trace_overhead_frac", ratio(median(traced), median(untraced))-1)
	res.set("ledger.solve_accounted_frac", solveAccounted(spans))
	return nil
}

// poolCheck re-runs a batch with every solve at one worker: the results
// must equal the parallel batch's, and the serial wall time over parallelS
// is the restart pool's speed-up. Batches without local searches have no
// pool to check.
func poolCheck(res *result, items []solveItem, parallel []*core.Anytime, parallelS float64) error {
	if !hasLocalSearch(items) {
		return nil
	}
	serial := append([]solveItem(nil), items...)
	for i := range serial {
		serial[i].workers = 1
	}
	one, err := runBatch(newTracer(false), 0, serial, nil)
	if err != nil {
		return err
	}
	for i, it := range serial {
		if outcomeOf(one.results[i]) != outcomeOf(parallel[i]) {
			res.fail(fmt.Errorf("%s: workers 1 gives %+v, workers 2 gives %+v",
				it.key(), outcomeOf(one.results[i]), outcomeOf(parallel[i])))
		}
	}
	res.set("core.pool_speedup", ratio(secs(one.wall), parallelS))
	return nil
}

// solveAccounted is the share of the traced batches' wall time spent inside
// solver calls.
func solveAccounted(spans []Span) float64 {
	var solves, batches time.Duration
	for _, sp := range spans {
		switch {
		case sp.Name == "batch":
			batches += sp.Dur()
		case strings.HasPrefix(sp.Name, "core.solve."):
			solves += sp.Dur()
		}
	}
	return ratio(float64(solves), float64(batches))
}

func hasLocalSearch(items []solveItem) bool {
	for _, it := range items {
		if it.alg == "ALS" || it.alg == "BLS" {
			return true
		}
	}
	return false
}

// algStats gathers one algorithm's solver rows.
type algStats struct {
	solveMS []float64
	evals   []float64
	cache   core.CacheStats
}

// solverLedger writes the core.* rows shared by every workload.
func solverLedger(res *result, perAlg map[string]*algStats) {
	var cache core.CacheStats
	names := make([]string, 0, len(perAlg))
	for alg := range perAlg {
		names = append(names, alg)
	}
	sort.Strings(names)
	for _, alg := range names {
		a := perAlg[alg]
		res.set("core.solve_ms."+alg, median(a.solveMS))
		res.set("core.evals."+alg, mean(a.evals))
		res.set("core.ns_per_eval."+alg, ratio(mean(a.solveMS)*1e6, mean(a.evals)))
		cache = cache.Add(a.cache)
	}
	res.set("core.celf_hits", float64(cache.Hits))
	res.set("core.celf_misses", float64(cache.Misses))
	res.set("core.celf_rescans", float64(cache.Rescans))
	res.set("core.celf_hit_ratio", ratio(float64(cache.Hits), float64(cache.Hits+cache.Misses)))
}

// itemsDigest identifies an offline workload's inputs: the solves of its
// batch with their instances, algorithms, seeds and budgets.
func itemsDigest(name string, items []solveItem) string {
	h := sha256.New()
	fmt.Fprintln(h, name)
	for _, it := range items {
		fmt.Fprintln(h, it.key(), it.workers)
	}
	return hex.EncodeToString(h.Sum(nil))
}
