package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/workload"
)

// The serve workloads replay an open-loop Poisson trace from
// workload.Generate against an in-process daemon: server.New(...).Handler()
// is called directly with recorded requests, so no socket is opened and the
// load adds no threads. Each request is timed from the instant it was due,
// and the generator never holds more requests in flight than the daemon's
// admission capacity (workers + queue); a request due while that many are
// in flight is refused and counts as a miss.

// The daemon every serve workload runs against: one solve worker per core,
// a waiting room of 24, and the solve cache on. The waiting room is deep
// enough that only a stall of more than a second refuses a request.
const (
	serveWorkers      = 2
	serveQueueDepth   = 24
	serveCacheEntries = 1024
)

// Every solve request asks for one restart; a quarter of them carry a
// 2000 ms deadline. A request without one is good if answered within
// serveLatencyLimit. Both are an order of magnitude above the slowest solve
// (a BLS restart on SG, about 0.2 s), so no request fails on a healthy
// daemon: with a 500 ms deadline and a 1 s limit, a few requests in every
// few thousand missed them on a busy host, and the failure count differed
// between two sets of runs of the same code.
const (
	serveRestarts     = 1
	serveLatencyLimit = 5 * time.Second
)

var serveDeadlinesMS = []int64{0, 0, 0, 2000}

// serveConfig sizes one serve workload.
type serveConfig struct {
	// rate is the offered solve rate (req/s); churnRate the PATCH rate.
	rate, churnRate float64
	// solveSeeds, when positive, sizes the solver-seed pool requests draw
	// from, with the algorithm and instance drawn uniformly, as
	// workload.Generate makes them. Zero deals the fixed request
	// population instead (see deal).
	solveSeeds int
	// warmBLS sends warm_start on every BLS solve; the other solves stay
	// cold and go through the solve cache.
	warmBLS bool
}

// The offered rates keep the workers about an eighth busy
// (server.worker_busy_frac in the ledger), so a request's latency is mostly
// its own solve: the median request is a greedy or ALS solve, the 95th
// percentile a BLS solve on SG. Closer to capacity, queueing behind bursts
// of BLS solves made both percentiles swing by more than their bound from
// seed to seed.
//
// serve-mixed deals its requests from a fixed population, in which a fifth
// of the solves repeat an earlier tuple, so cache hits stay a minority.
var serveMixed = serveConfig{rate: 16}

// serveChurn is the write path: the same daemon and fleet, patched once a
// second, with BLS solves warm-starting from the daemon's incumbent plans
// and the other solves on one solver seed, so they hit the cache until a
// PATCH invalidates it. It is replayed only in serve-mixed's traced run, for
// the catalog.Patch, core.WarmStart and invalidation rows of the ledger.
// It is not a workload of its own: which plan a warm start finds depends on
// which solve finished last, so its latency_p95_ms spread by about a
// quarter from seed to seed (interquartile range 0.247 of the median over
// ten seeds on a 2-vCPU VM), as wide as the widest bound a metric may have.
var serveChurn = serveConfig{rate: 48, churnRate: 1, solveSeeds: 1, warmBLS: true}

// trace generates the workload's trace: the first rate×seconds solves of
// the seeded Poisson process, and the PATCH writes due before the last of
// them. Fixing the solve count instead of the time span keeps the offered
// work equal from seed to seed; the span varies with the arrivals.
func (c serveConfig) trace(seed uint64, seconds float64) (workload.Trace, error) {
	names := make([]string, len(fleet))
	for i, s := range fleet {
		names[i] = s.Name
	}
	tr, err := workload.Generate(workload.Config{
		Seed:        seed,
		Duration:    time.Duration(2 * seconds * float64(time.Second)),
		Rate:        c.rate,
		Instances:   names,
		Algorithms:  algorithms,
		DeadlinesMS: serveDeadlinesMS,
		Restarts:    serveRestarts,
		SolveSeeds:  c.solveSeeds,
		ChurnRate:   c.churnRate,
	})
	if err != nil {
		return nil, err
	}
	want := int(c.rate*seconds + 0.5)
	solves := 0
	for i, r := range tr {
		if !r.IsPatch() {
			solves++
		}
		if solves == want {
			tr = tr[:i+1]
			if c.solveSeeds == 0 {
				deal(tr, seed, names)
			}
			return tr, nil
		}
	}
	return nil, fmt.Errorf("trace holds %d solves, want %d", solves, want)
}

// repeatShare is the share of a dealt population's solves that repeat an
// earlier (instance, algorithm, seed) tuple, which the daemon answers from
// its solve cache or by joining the solve in flight.
const repeatShare = 0.2

// deal gives the trace's solves a fixed population of requests in a seeded
// order; workload.Generate's arrival times and deadlines stay as they are.
// Every (instance, algorithm) pair gets an equal share of the solves, and
// within a pair the requests carry solver seeds 1..d and then repeat seeds
// from 1, with d chosen so that repeatShare of them are repeats. So every
// seed offers the same requests, and only their order and timing change.
//
// With the mix drawn afresh for every seed, the 95th-percentile latency
// followed how many uncached BLS solves on SG a seed happened to draw
// (17 to 29 in 384 at 24 req/s), and its interquartile range over five
// seeds was half its median; dealt at 16 req/s over 24 s, about a tenth
// over ten seeds.
func deal(tr workload.Trace, seed uint64, names []string) {
	pairs := len(names) * len(algorithms)
	n := 0
	for _, r := range tr {
		if !r.IsPatch() {
			n++
		}
	}
	perPair := (n + pairs - 1) / pairs
	distinct := max(1, int(math.Ceil(float64(perPair)*(1-repeatShare))))
	order := rng.New(seed).Derive("deal").Perm(n)
	k := 0
	for i := range tr {
		if tr[i].IsPatch() {
			continue
		}
		j := order[k]
		k++
		pair := j % pairs
		tr[i].Instance = names[pair/len(algorithms)]
		tr[i].Algorithm = algorithms[pair%len(algorithms)]
		tr[i].Seed = uint64((j/pairs)%distinct) + 1
	}
}

// daemon is one in-process server over a freshly built fleet.
type daemon struct {
	built []*builtInstance
	cat   *catalog.Catalog
	srv   *server.Server
}

func newDaemon(tr *tracer, parent int, traceCap int) (*daemon, error) {
	built, cat, err := buildFleet(tr, parent)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("server.new", parent)
	srv, err := server.New(server.Config{
		Catalog:          cat,
		Workers:          serveWorkers,
		QueueDepth:       serveQueueDepth,
		CacheEntries:     serveCacheEntries,
		Admission:        server.AdmitDeadline,
		TraceCapacity:    traceCap,
		TraceKeepSlowest: 1, // keep every trace
	})
	sp.end()
	if err != nil {
		return nil, err
	}
	return &daemon{built: built, cat: cat, srv: srv}, nil
}

// reply is one trace entry's observed outcome.
type reply struct {
	req     workload.Request
	warm    bool
	refused bool
	lag     time.Duration // dispatch time − due time
	latency time.Duration // completion time − due time
	status  int
	reason  string // X-Reject-Reason of a 429
	traceID string
	resp    server.SolveResponse
	patch   server.InstanceInfo
	err     error
}

// good reports whether a solve came back whole and in time.
func (r *reply) good(limit time.Duration) bool {
	if r.status != http.StatusOK || r.resp.Truncated {
		return false
	}
	if d := r.req.Deadline(); d > 0 {
		limit = d
	}
	return r.latency <= limit
}

// replay issues the trace open-loop against h.
func replay(tr *tracer, h http.Handler, trace workload.Trace, c serveConfig) []reply {
	out := make([]reply, len(trace))
	slots := make(chan struct{}, serveWorkers+serveQueueDepth)
	var wg sync.WaitGroup
	start := time.Now()
	for i, req := range trace {
		due := start.Add(req.At())
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		r := &out[i]
		r.req = req
		r.warm = c.warmBLS && req.Algorithm == "BLS" && !req.IsPatch()
		select {
		case slots <- struct{}{}:
		default:
			r.refused = true
			r.lag = time.Since(due)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-slots }()
			sent := time.Now()
			r.lag = sent.Sub(due)
			issue(h, r)
			done := time.Now()
			r.latency = done.Sub(due)
			root := tr.add(0, 0, "workload.request", due, done)
			tr.add(0, root, "workload.gen_lag", due, sent)
			tr.add(0, root, "server.request", sent, done)
		}()
	}
	wg.Wait()
	return out
}

// issue sends one request through the handler and decodes the answer.
func issue(h http.Handler, r *reply) {
	var method, target string
	var body any
	if r.req.IsPatch() {
		method, target = http.MethodPatch, "/instances/"+r.req.Instance+"/advertisers"
		body = map[string]any{"ops": r.req.Patch}
	} else {
		method, target = http.MethodPost, "/solve"
		body = server.SolveRequest{
			Instance:   r.req.Instance,
			Algorithm:  r.req.Algorithm,
			Seed:       r.req.Seed,
			Restarts:   r.req.Restarts,
			DeadlineMS: r.req.DeadlineMS,
			WarmStart:  r.warm,
		}
	}
	buf, err := json.Marshal(body)
	if err != nil {
		r.err = err
		return
	}
	hr := httptest.NewRequest(method, target, bytes.NewReader(buf))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, hr)
	r.status = rec.Code
	r.reason = rec.Header().Get("X-Reject-Reason")
	// A tracing daemon names the request's trace in its traceparent echo.
	r.traceID, _, _, _ = obs.ParseTraceparent(rec.Header().Get("Traceparent"))
	if rec.Code != http.StatusOK {
		return
	}
	if r.req.IsPatch() {
		r.err = json.Unmarshal(rec.Body.Bytes(), &r.patch)
	} else {
		r.err = json.Unmarshal(rec.Body.Bytes(), &r.resp)
	}
}

// tuple identifies a deterministic solve: the same tuple on the same
// catalog generation always has the same cold answer.
type tuple struct {
	instance   string
	generation uint64
	alg        string
	seed       uint64
	restarts   int
}

// references rebuilds every catalog generation the replay served — the
// fleet as installed, then each applied PATCH in generation order on a
// reference catalog — and cold-solves every served tuple through the
// library. It returns the answers and the reference catalog's Patch times.
func references(d *daemon, replies []reply) (map[tuple]answer, []time.Duration, error) {
	ref := catalog.New()
	byGen := map[uint64]*core.Instance{}
	for _, b := range d.built {
		e, err := ref.AddInstance(b.spec.Name, b.inst)
		if err != nil {
			return nil, nil, err
		}
		byGen[e.Generation] = e.Instance
	}
	var patches []*reply
	for i := range replies {
		if r := &replies[i]; r.req.IsPatch() && r.status == http.StatusOK {
			patches = append(patches, r)
		}
	}
	sort.Slice(patches, func(a, b int) bool { return patches[a].patch.Generation < patches[b].patch.Generation })
	var patchTimes []time.Duration
	for _, p := range patches {
		t := time.Now()
		e, _, err := ref.Patch(p.req.Instance, p.req.Patch)
		patchTimes = append(patchTimes, time.Since(t))
		if err != nil {
			return nil, nil, fmt.Errorf("reference patch: %w", err)
		}
		if e.Generation != p.patch.Generation {
			return nil, nil, fmt.Errorf("reference patch of %s made generation %d, the daemon's made %d",
				p.req.Instance, e.Generation, p.patch.Generation)
		}
		byGen[e.Generation] = e.Instance
	}

	var todo []tuple
	seen := map[tuple]bool{}
	for i := range replies {
		r := &replies[i]
		if r.req.IsPatch() || r.status != http.StatusOK {
			continue
		}
		k := tupleOf(r)
		if !seen[k] {
			seen[k] = true
			todo = append(todo, k)
		}
	}
	answers := map[tuple]answer{}
	for _, k := range todo {
		inst, ok := byGen[k.generation]
		if !ok {
			return nil, nil, fmt.Errorf("no catalog generation %d for %s", k.generation, k.instance)
		}
		res, err := solve(solveItem{instance: k.instance, inst: inst, alg: k.alg, seed: k.seed,
			restarts: k.restarts, workers: 2}, nil)
		if err != nil {
			return nil, nil, err
		}
		answers[k] = answer{regret: res.TotalRegret, evals: res.Evals, satisfied: res.Plan.SatisfiedCount()}
	}
	return answers, patchTimes, nil
}

// answer is what a served solve is checked against: the library's cold
// answer for its tuple. Only the numbers are kept, not the plan, so the
// references do not inflate the heap the rest of the run measures.
type answer struct {
	regret    float64
	evals     int64
	satisfied int
}

func tupleOf(r *reply) tuple {
	return tuple{instance: r.req.Instance, generation: r.resp.Generation, alg: r.req.Algorithm,
		seed: r.req.Seed, restarts: r.req.Restarts}
}

// fleetSeeds is how many solver seeds the serve fleet batch runs per
// (instance, algorithm).
const fleetSeeds = 4

// fleetPasses is how many times a serve run repeats the fleet batch.
const fleetPasses = 7

// fleetBatch is the serve workloads' closed-loop batch: each algorithm on
// each fleet instance at seeds 1..fleetSeeds, with the requests' restart
// budget, at 2 workers.
func fleetBatch(built []*builtInstance) []solveItem {
	var items []solveItem
	for _, b := range built {
		for _, alg := range algorithms {
			for seed := uint64(1); seed <= fleetSeeds; seed++ {
				items = append(items, solveItem{instance: b.spec.Name, inst: b.inst, alg: alg,
					seed: seed, restarts: serveRestarts, workers: 2})
			}
		}
	}
	return items
}

// replayStats summarises a replay's solves.
type replayStats struct {
	attempted, solves, good                     int
	refused, shedCap, shedDeadline, errs, wrong int
	latMS                                       []float64
	lagMS, patchMS                              []float64
	served, truncated                           int
	regret, refRegret                           float64
	warmAsked, warmStarted                      int
	frozen, warmEvals, warmRefEvals             float64
	// busyMS is the worker time the computed solves held; spanMS runs from
	// the start of the replay to its last completion.
	busyMS, spanMS float64
}

// score checks every served answer against the references and totals the
// replay.
func score(res *result, replies []reply, refs map[tuple]answer) replayStats {
	var st replayStats
	for i := range replies {
		r := &replies[i]
		st.attempted++
		st.lagMS = append(st.lagMS, float64(r.lag)/1e6)
		switch {
		case r.refused:
			st.refused++
			continue
		case r.err != nil:
			st.errs++
			res.fail(fmt.Errorf("request %d: %w", r.req.Index, r.err))
			continue
		}
		if r.req.IsPatch() {
			if r.status == http.StatusOK {
				st.patchMS = append(st.patchMS, float64(r.latency)/1e6)
			} else {
				st.errs++
			}
			continue
		}
		st.solves++
		switch {
		case r.status == http.StatusTooManyRequests && r.reason == "deadline_infeasible":
			st.shedDeadline++
			continue
		case r.status == http.StatusTooManyRequests:
			st.shedCap++
			continue
		case r.status != http.StatusOK:
			st.errs++
			continue
		}
		st.served++
		st.latMS = append(st.latMS, float64(r.latency)/1e6)
		st.spanMS = max(st.spanMS, r.req.AtMS+float64(r.latency)/1e6)
		if !r.resp.Cached {
			st.busyMS += r.resp.LatencyMS
		}
		ref := refs[tupleOf(r)]
		st.regret += r.resp.TotalRegret
		st.refRegret += ref.regret
		if r.resp.Truncated {
			st.truncated++
		}
		if r.warm {
			st.warmAsked++
		}
		if r.resp.WarmStarted {
			st.warmStarted++
			st.frozen += float64(r.resp.FrozenAdvertisers)
			st.warmEvals += float64(r.resp.Evals)
			st.warmRefEvals += float64(ref.evals)
		} else if !r.resp.Truncated {
			if r.resp.TotalRegret != ref.regret || r.resp.Evals != ref.evals || r.resp.Satisfied != ref.satisfied {
				st.wrong++
				res.fail(fmt.Errorf("request %d (%+v): served regret %v evals %d satisfied %d, library regret %v evals %d satisfied %d",
					r.req.Index, tupleOf(r), r.resp.TotalRegret, r.resp.Evals, r.resp.Satisfied,
					ref.regret, ref.evals, ref.satisfied))
				continue
			}
		}
		if r.good(serveLatencyLimit) {
			st.good++
		}
	}
	return st
}

// runServe measures a serve workload.
func runServe(o options, c serveConfig) (*result, *tracer, error) {
	tr := newTracer(o.trace)
	trace, err := c.trace(o.seed, o.seconds)
	if err != nil {
		return nil, nil, err
	}
	res := newResult(o)
	res.digest = trace.SHA256()

	var setupTimes []float64
	var firstSetupRSS float64
	var d *daemon
	for rep := 0; rep < o.setupReps; rep++ {
		d = nil
		heapMB() // drop the previous repetition before timing the next
		sp := tr.begin("setup", 0)
		d, err = newDaemon(tr, sp.id, 0)
		dur := sp.end()
		if err != nil {
			return nil, nil, err
		}
		setupTimes = append(setupTimes, secs(dur))
		if rep == 0 {
			if firstSetupRSS, err = peakRSSMB(); err != nil {
				return nil, nil, err
			}
		}
	}
	res.set("setup_s", median(setupTimes))
	res.set("heap_mb", heapMB())
	resetPeakRSS()

	// The solve batch of a serve workload is the fleet batch: every
	// algorithm on every instance at fixed seeds, closed loop, checked
	// against expected.go like the offline batches. It is short, so it runs
	// fleetPasses times and reports the median pass. It runs before the
	// replay, on the heap set-up left.
	items := fleetBatch(d.built)
	var passes []float64
	var batch *batchRun
	for i := 0; i < fleetPasses; i++ {
		batch, err = runBatch(tr, 0, items, nil)
		if err != nil {
			return nil, nil, err
		}
		if bad, err := verifyBatch(expectedFor("serve-fleet"), items, batch); bad > 0 {
			res.fail(err)
		}
		passes = append(passes, secs(batch.wall))
	}
	res.set("solve_s", median(passes))

	// The measured replay runs untraced; a traced run replays the same
	// trace again on a fresh traced daemon for the ledger.
	tr.on = false
	replies := replay(tr, d.srv.Handler(), trace, c)
	tr.on = o.trace
	refs, _, err := references(d, replies)
	if err != nil {
		return nil, nil, err
	}
	st := score(res, replies, refs)
	res.attempted = st.attempted
	res.failed = st.attempted - st.good - len(st.patchMS)
	if rss, err := runPeakRSSMB(firstSetupRSS); err == nil {
		res.set("peak_rss_mb", rss)
	} else {
		return nil, nil, err
	}
	res.set("latency_p50_ms", quantile(st.latMS, 0.50))
	res.set("latency_p95_ms", quantile(st.latMS, 0.95))
	// Goodput at the offered rate: the share of offered solves answered
	// whole and in time, times the rate they were offered at.
	res.set("goodput_rps", c.rate*ratio(float64(st.good), float64(st.solves+st.refused)))
	failed := st.refused + st.shedCap + st.shedDeadline + st.errs + st.wrong
	res.set("ok_frac", 1-ratio(float64(failed), float64(st.attempted)))
	res.set("regret_ratio", ratio(st.regret, st.refRegret))
	if n := len(st.latMS); n < 200 {
		fmt.Fprintf(os.Stderr, "perfbench: only %d served solves; latency_p95_ms has fewer than 10 samples beyond it\n", n)
	}

	if o.trace {
		if err := poolCheck(res, items, batch.results, median(passes)); err != nil {
			return nil, nil, err
		}
		res.set("ledger.solve_accounted_frac", solveAccounted(tr.spans))
		if err := serveLayers(res, tr, o, c, trace, st); err != nil {
			return nil, nil, err
		}
	}
	return res, tr, nil
}

// serveLayers replays the trace on a traced daemon and writes the ledger.
func serveLayers(res *result, tr *tracer, o options, c serveConfig, trace workload.Trace, base replayStats) error {
	d, err := newDaemon(newTracer(false), 0, len(trace)+16)
	if err != nil {
		return err
	}
	replies := replay(tr, d.srv.Handler(), trace, c)
	refs, _, err := references(d, replies)
	if err != nil {
		return err
	}
	st := score(res, replies, refs)

	setupLedger(res, tr.spans, d.built)
	kernels(res, kernelFleetUniverse(d.built))
	res.set("core.truncated_frac", ratio(float64(st.truncated), float64(st.served)))
	res.set("server.shed_capacity_frac", ratio(float64(st.refused+st.shedCap), float64(st.attempted)))
	res.set("server.shed_deadline_frac", ratio(float64(st.shedDeadline), float64(st.attempted)))
	res.set("server.worker_busy_frac", ratio(st.busyMS, serveWorkers*st.spanMS))
	res.set("workload.gen_lag_p95_ms", quantile(st.lagMS, 0.95))
	res.set("obs.trace_overhead_frac", ratio(mean(st.latMS), mean(base.latMS))-1)

	m, err := scrape(d.srv)
	if err != nil {
		return err
	}
	hits, misses, coalesced := m[`mroamd_solve_cache_events_total{event="hit"}`],
		m[`mroamd_solve_cache_events_total{event="miss"}`], m[`mroamd_solve_cache_events_total{event="coalesced"}`]
	lookups := hits + misses + coalesced
	res.set("solvecache.hit_ratio", ratio(hits, lookups))
	res.set("solvecache.coalesced_ratio", ratio(coalesced, lookups))

	trees, err := fetchTraces(d.srv)
	if err != nil {
		return err
	}
	if err := phaseLedger(res, replies, trees, m); err != nil {
		return err
	}
	return churnLedger(res, o)
}

// churnLedger replays the churn trace on a fresh daemon and writes the
// write-path rows — PATCH latency, the reference catalog's Patch time, warm
// starts and cache invalidations — after checking every cold answer
// against the library like any other replay.
func churnLedger(res *result, o options) error {
	trace, err := serveChurn.trace(o.seed, o.seconds)
	if err != nil {
		return err
	}
	d, err := newDaemon(newTracer(false), 0, 0)
	if err != nil {
		return err
	}
	replies := replay(newTracer(false), d.srv.Handler(), trace, serveChurn)
	refs, patchTimes, err := references(d, replies)
	if err != nil {
		return err
	}
	st := score(res, replies, refs)
	res.set("catalog.patch_ms", median(ms(patchTimes)))
	res.set("server.patch_ms.p50", median(st.patchMS))
	res.set("core.warm_started_frac", ratio(float64(st.warmStarted), float64(st.warmAsked)))
	res.set("core.frozen_advertisers", ratio(st.frozen, float64(st.warmStarted)))
	res.set("core.warm_evals_ratio", ratio(st.warmEvals, st.warmRefEvals))
	m, err := scrape(d.srv)
	if err != nil {
		return err
	}
	res.set("solvecache.invalidations", m[`mroamd_solve_cache_events_total{event="evicted"}`])
	return nil
}

// scrape reads the daemon's /metrics.
func scrape(srv *server.Server) (map[string]float64, error) {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", rec.Code)
	}
	return promCounters(rec.Body)
}

// fetchTraces reads every retained span tree from /debug/traces.
func fetchTraces(srv *server.Server) (map[string]*server.TraceTree, error) {
	get := func(path string, v any) error {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("%s answered %d", path, rec.Code)
		}
		return json.Unmarshal(rec.Body.Bytes(), v)
	}
	var list server.TraceList
	if err := get("/debug/traces", &list); err != nil {
		return nil, err
	}
	trees := map[string]*server.TraceTree{}
	for _, t := range list.Traces {
		var tree server.TraceTree
		if err := get("/debug/traces/"+t.TraceID, &tree); err != nil {
			return nil, err
		}
		trees[t.TraceID] = &tree
	}
	return trees, nil
}

// phaseLedger writes the server-phase and solver rows from the daemon's
// span trees and the check that lag plus server phases account for the
// latency clients saw.
func phaseLedger(res *result, replies []reply, trees map[string]*server.TraceTree, m map[string]float64) error {
	phases := map[string][]float64{}
	var restarts []float64
	perAlg := map[string]*algStats{}
	for _, alg := range algorithms {
		perAlg[alg] = &algStats{}
	}
	var accounted, latency float64
	for i := range replies {
		r := &replies[i]
		if r.req.IsPatch() || r.status != http.StatusOK {
			continue
		}
		tree, ok := trees[r.traceID]
		if !ok || len(tree.Roots) != 1 {
			return fmt.Errorf("request %d: no single-rooted trace %q retained", r.req.Index, r.traceID)
		}
		root := tree.Roots[0]
		accounted += float64(r.lag)/1e6 + root.DurationMS
		latency += float64(r.latency) / 1e6
		for _, ph := range root.Children {
			phases[ph.Name] = append(phases[ph.Name], ph.DurationMS)
			if ph.Name != "solve" {
				continue
			}
			for _, slot := range ph.Children {
				if slot.Name == "restart" {
					restarts = append(restarts, slot.DurationMS)
				}
			}
			if !r.resp.Cached {
				a := perAlg[r.req.Algorithm]
				a.solveMS = append(a.solveMS, ph.DurationMS)
				a.evals = append(a.evals, float64(r.resp.Evals))
			}
		}
	}
	for _, ph := range serverPhases {
		res.set("server."+ph+"_ms.p50", quantile(phases[ph], 0.50))
		res.set("server."+ph+"_ms.p95", quantile(phases[ph], 0.95))
	}
	res.set("ledger.latency_accounted_frac", ratio(accounted, latency))
	res.set("core.restart_ms", median(restarts))
	solverLedger(res, perAlg)
	// The daemon's gain-cache counters cover every solve it ran.
	res.set("core.celf_hits", m[`mroamd_gain_cache_events_total{event="hit"}`])
	res.set("core.celf_misses", m[`mroamd_gain_cache_events_total{event="miss"}`])
	res.set("core.celf_rescans", m[`mroamd_gain_cache_events_total{event="rescan"}`])
	h, mi := res.metrics["core.celf_hits"], res.metrics["core.celf_misses"]
	res.set("core.celf_hit_ratio", ratio(h, h+mi))
	return nil
}
