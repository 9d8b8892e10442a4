package server

import (
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
)

// metrics aggregates per-request observations on obs primitives. The same
// counters and histograms back both the Prometheus exposition on /metrics
// and the JSON snapshot on /stats, so the two views can never disagree;
// everything on the hot path is lock-free (the CounterVec children are
// created once per label value and cached inside the vec).
type metrics struct {
	start time.Time
	reg   *obs.Registry
	cat   *catalog.Catalog

	requests         *obs.CounterVec   // completed solves by algorithm × model
	instanceReqs     *obs.CounterVec   // completed solves by catalog instance
	instanceInflight *obs.GaugeVec     // admitted (queued or executing) requests by instance
	reloads          *obs.Counter      // successful PUT /instances loads
	patches          *obs.Counter      // successful PATCH /instances/{name}/advertisers ops
	latency          *obs.Histogram    // seconds per completed solve
	regret           *obs.Histogram    // final total regret per completed solve
	truncated        *obs.Counter      // completed solves cut off by deadline/cancel
	rejected         *obs.CounterVec   // 429s at admission, by reason
	abandoned        *obs.Counter      // client gone while waiting for a worker slot
	restarts         *obs.Counter      // sum of RestartsCompleted
	evals            *obs.Counter      // sum of Evals
	cache            *obs.CounterVec   // gain-cache events by kind
	solveCache       *obs.CounterVec   // solve-result cache events by kind
	queueWait        *obs.Histogram    // seconds between queue entry and worker-slot acquisition
	solvePhase       *obs.HistogramVec // seconds per request phase (admission/solve/encode)
	traceEvents      *obs.CounterVec   // span-store admissions by outcome (stored/sampled_out)

	// phaseHist[p] is the histogram phase p's time is observed into; the
	// cache probe counts as admission work.
	phaseHist [numPhases]*obs.Histogram

	// Histograms do not retain a max, so /stats keeps its own (CAS loop,
	// still lock-free).
	latencyMaxMicros atomic.Int64
}

// Latency buckets span 1ms..~16s doubling per bucket — wide enough for a
// city-scale BLS solve, fine enough to see the greedy algorithms. Regret
// buckets span 1..~8.4M the same way; regret is instance-scale dependent,
// so the range is deliberately generous.
var (
	latencyBuckets = obs.ExpBuckets(0.001, 2, 15)
	regretBuckets  = obs.ExpBuckets(1, 2, 24)
)

func newMetrics(cat *catalog.Catalog) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{start: time.Now(), reg: reg, cat: cat}
	m.requests = reg.CounterVec("mroamd_requests_total",
		"Completed solve requests by algorithm and regret-model kind.",
		"algorithm", "model")
	// Pre-create the base-model series for every solver so the exposition
	// shows explicit zeros before the first request (variant series appear
	// when a variant instance first serves).
	for _, alg := range []string{"ALS", "BLS", "G-Global", "G-Order"} {
		m.requests.With(alg, core.ModelBase)
	}
	m.instanceReqs = reg.CounterVec("mroamd_instance_requests_total",
		"Completed solve requests by catalog instance.", "instance")
	m.instanceInflight = reg.GaugeVec("mroamd_instance_inflight",
		"Requests currently admitted (queued or executing) per instance.", "instance")
	m.reloads = reg.Counter("mroamd_instance_reloads_total",
		"Instances loaded or hot-swapped via PUT /instances.")
	m.patches = reg.Counter("mroamd_instance_patches_total",
		"Advertiser patches applied via PATCH /instances/{name}/advertisers.")
	reg.GaugeFunc("mroamd_instances_loaded",
		"Instances currently resident in the catalog.",
		func() float64 { return float64(cat.Len()) })
	m.latency = reg.Histogram("mroamd_solve_latency_seconds",
		"Wall-clock latency of completed solves.", latencyBuckets)
	m.regret = reg.Histogram("mroamd_solve_regret",
		"Final total regret of completed solves.", regretBuckets)
	m.truncated = reg.Counter("mroamd_solves_truncated_total",
		"Completed solves cut short by deadline or client disconnect.")
	m.rejected = reg.CounterVec("mroamd_requests_rejected_total",
		"Requests shed with 429 at admission, by reason: capacity = queue full, "+
			"deadline_infeasible = the deadline policy judged the request's deadline "+
			"unmeetable at the current drain rate, fairness = the instance exceeded "+
			"its fair share of admission slots.",
		"reason")
	// Pre-create every reason series so a zero stays visible in the
	// exposition (absent series read as "never possible", zeros as "not yet").
	for _, reason := range rejectReasons {
		m.rejected.With(reason)
	}
	m.abandoned = reg.Counter("mroamd_requests_abandoned_total",
		"Requests whose client disconnected while queued (499).")
	m.restarts = reg.Counter("mroamd_solver_restarts_total",
		"Local-search restarts completed across all solves.")
	m.evals = reg.Counter("mroamd_solver_evals_total",
		"Candidate plan evaluations across all solves.")
	m.cache = reg.CounterVec("mroamd_gain_cache_events_total",
		"Gain-cache outcomes: hit = evaluation avoided by a CELF bound, "+
			"miss = candidate evaluated exactly, rescan = selection fell back to a full scan.",
		"event")
	m.solveCache = reg.CounterVec("mroamd_solve_cache_events_total",
		"Solve-result cache outcomes: hit = served from cache, miss = a new solve started, "+
			"coalesced = joined an identical in-flight solve, evicted = entry dropped "+
			"(capacity or instance invalidation).",
		"event")
	m.queueWait = reg.Histogram("mroamd_queue_wait_seconds",
		"Time admitted requests spent waiting for a worker slot, measured at "+
			"slot acquisition and excluded from the solve phase by construction.",
		latencyBuckets)
	m.solvePhase = reg.HistogramVec("mroamd_solve_phase_seconds",
		"Per-phase server time for /solve requests: admission = decode, validation "+
			"and the cache probe; solve = solver (or coalesced flight) execution, queue "+
			"wait excluded; encode = response serialization. admission + "+
			"mroamd_queue_wait_seconds + solve + encode sum to a request's total server "+
			"time; phases a request never reached contribute nothing.",
		latencyBuckets, "phase")
	admission := m.solvePhase.With("admission")
	m.phaseHist = [numPhases]*obs.Histogram{
		phaseAdmission:   admission,
		phaseCacheLookup: admission,
		phaseQueue:       m.queueWait,
		phaseSolve:       m.solvePhase.With("solve"),
		phaseEncode:      m.solvePhase.With("encode"),
	}
	m.traceEvents = reg.CounterVec("mroamd_trace_events_total",
		"Completed-trace span-store admissions: stored = the trace entered the ring "+
			"(errors, sheds and truncations always do), sampled_out = a plain served "+
			"trace below the slowest-quantile threshold was dropped by tail sampling.",
		"event")
	m.traceEvents.With("stored")
	m.traceEvents.With("sampled_out")
	reg.GaugeFunc("mroamd_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(m.start).Seconds() })
	return m
}

// observeWork records the solver-work counters of one solver execution.
// The server calls it where the solve runs, once per execution, so the
// counters measure work done whether or not a request is still waiting for
// the result (an orphaned cache flight) and however many requests share it.
func (m *metrics) observeWork(res *core.Anytime) {
	m.restarts.Add(int64(res.RestartsCompleted))
	m.evals.Add(res.Evals)
	m.cache.With("hit").Add(res.Cache.Hits)
	m.cache.With("miss").Add(res.Cache.Misses)
	m.cache.With("rescan").Add(res.Cache.Rescans)
}

// observeRequest records the request-level aggregates of one served request —
// completion counters and the latency/regret histograms. The solver-work
// counters (restarts, evals, gain-cache events) are observeWork's, so solver
// work is never double-counted across cache hits and coalesced followers.
func (m *metrics) observeRequest(algorithm, instance, model string, res *core.Anytime, latency time.Duration) {
	m.requests.With(algorithm, model).Inc()
	m.instanceReqs.With(instance).Inc()
	m.latency.Observe(latency.Seconds())
	m.regret.Observe(res.TotalRegret)
	if res.Truncated {
		m.truncated.Inc()
	}
	us := latency.Microseconds()
	for {
		cur := m.latencyMaxMicros.Load()
		if us <= cur || m.latencyMaxMicros.CompareAndSwap(cur, us) {
			break
		}
	}
}

// AlgoCount is one per-algorithm request total in a Stats snapshot.
type AlgoCount struct {
	Algorithm string `json:"algorithm"`
	Requests  int64  `json:"requests"`
}

// InstanceCount is one loaded instance's identity, dimensions and request
// total in a Stats snapshot. Corridors/CompressionRatio describe the
// corridor-compressed coverage substrate the instance is served on (see
// coverage.Compress).
type InstanceCount struct {
	Instance         string  `json:"instance"`
	Generation       uint64  `json:"generation"`
	Billboards       int     `json:"billboards"`
	Advertisers      int     `json:"advertisers"`
	Corridors        int     `json:"corridors"`
	CompressionRatio float64 `json:"compression_ratio"`
	Requests         int64   `json:"requests"`
	// Inflight is the instance's currently admitted (queued or executing)
	// request count at snapshot time, so a load run can correlate observed
	// shedding with per-instance queue pressure.
	Inflight int64 `json:"inflight"`
}

// Stats is the JSON document served on GET /stats. Its shape predates the
// Prometheus exposition and is kept backward-compatible; the values are
// derived from the same underlying counters and histograms.
type Stats struct {
	UptimeSeconds  float64 `json:"uptime_seconds"`
	Completed      int64   `json:"completed"`
	Truncated      int64   `json:"truncated"`
	TruncationRate float64 `json:"truncation_rate"`
	Rejected       int64   `json:"rejected"`
	// RejectedByReason splits Rejected by admission reason (capacity,
	// deadline_infeasible, fairness); the values sum to Rejected.
	RejectedByReason map[string]int64 `json:"rejected_by_reason"`
	Abandoned        int64            `json:"abandoned"`
	// QueueDepth is the number of admission tokens held at snapshot time
	// (requests queued or executing), the same value as the
	// mroamd_queue_depth gauge.
	QueueDepth   int         `json:"queue_depth"`
	LatencyAvgMS float64     `json:"latency_avg_ms"`
	LatencyMaxMS float64     `json:"latency_max_ms"`
	Restarts     int64       `json:"restarts"`
	Evals        int64       `json:"evals"`
	PerAlgorithm []AlgoCount `json:"per_algorithm"`
	// PerInstance reports the catalog's currently loaded instances — name,
	// generation, dimensions — joined with each one's completed-request
	// count. Requests against a since-reloaded generation still count under
	// the name; requests against a since-deleted name are dropped with it.
	PerInstance []InstanceCount `json:"per_instance"`
}

func (m *metrics) snapshot(queueDepth int) Stats {
	s := Stats{
		UptimeSeconds:    time.Since(m.start).Seconds(),
		Completed:        m.latency.Count(),
		Truncated:        m.truncated.Value(),
		RejectedByReason: make(map[string]int64, len(rejectReasons)),
		Abandoned:        m.abandoned.Value(),
		QueueDepth:       queueDepth,
		Restarts:         m.restarts.Value(),
		Evals:            m.evals.Value(),
		LatencyMaxMS:     float64(m.latencyMaxMicros.Load()) / 1e3,
	}
	m.rejected.Each(func(values []string, n int64) {
		s.RejectedByReason[values[0]] = n
		s.Rejected += n
	})
	if s.Completed > 0 {
		s.LatencyAvgMS = m.latency.Sum() / float64(s.Completed) * 1e3
		s.TruncationRate = float64(s.Truncated) / float64(s.Completed)
	}
	// /stats predates the model label: PerAlgorithm stays a per-algorithm
	// total, summed across model kinds.
	byAlg := make(map[string]int64)
	m.requests.Each(func(values []string, n int64) { byAlg[values[0]] += n })
	for alg, n := range byAlg {
		if n == 0 {
			// Pre-created zero series stay visible on /metrics but do not
			// grow the /stats document (its pre-label shape listed only
			// algorithms that had served).
			continue
		}
		s.PerAlgorithm = append(s.PerAlgorithm, AlgoCount{Algorithm: alg, Requests: n})
	}
	sort.Slice(s.PerAlgorithm, func(i, j int) bool {
		return s.PerAlgorithm[i].Algorithm < s.PerAlgorithm[j].Algorithm
	})
	counts := make(map[string]int64)
	m.instanceReqs.Each(func(values []string, n int64) { counts[values[0]] = n })
	inflight := make(map[string]int64)
	m.instanceInflight.Each(func(values []string, n int64) { inflight[values[0]] = n })
	for _, e := range m.cat.List() { // List is sorted by name
		s.PerInstance = append(s.PerInstance, InstanceCount{
			Instance:         e.Name,
			Generation:       e.Generation,
			Billboards:       e.Info.Billboards,
			Advertisers:      e.Info.Advertisers,
			Corridors:        e.Info.Corridors,
			CompressionRatio: e.Info.CompressionRatio,
			Requests:         counts[e.Name],
			Inflight:         inflight[e.Name],
		})
	}
	return s
}
