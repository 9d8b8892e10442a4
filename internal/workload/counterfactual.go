package workload

import (
	"container/heap"
	"sort"
	"time"

	"repro/internal/server"
)

// ServiceModel supplies the oracle per-request service times the simulator
// runs on: the mean worker-hold time per algorithm, measured from a real
// replay (MeasureServiceModel) or supplied directly in tests.
type ServiceModel struct {
	// MSByAlgorithm maps solver names to mean uncached worker-hold
	// milliseconds.
	MSByAlgorithm map[string]float64 `json:"ms_by_algorithm,omitempty"`
	// DefaultMS backs algorithms absent from MSByAlgorithm.
	DefaultMS float64 `json:"default_ms"`
}

// ServiceMS returns the modeled worker-hold time for one algorithm.
func (m ServiceModel) ServiceMS(algorithm string) float64 {
	if ms, ok := m.MSByAlgorithm[algorithm]; ok && ms > 0 {
		return ms
	}
	return m.DefaultMS
}

// meanMS is the trace-exposure-weighted mean service time — the simulator's
// stand-in for the server's EWMA drain estimate. The real estimator
// converges on this value under a stationary mix; using the stationary mean
// keeps the counterfactual deterministic and free of warm-up artifacts.
func (m ServiceModel) meanMS(trace Trace) float64 {
	if len(trace) == 0 {
		return m.DefaultMS
	}
	var sum float64
	var n int
	for _, r := range trace {
		if r.IsPatch() {
			continue
		}
		sum += m.ServiceMS(r.Algorithm)
		n++
	}
	if n == 0 {
		return m.DefaultMS
	}
	return sum / float64(n)
}

// MeasureServiceModel fits a ServiceModel to an observed replay: per
// algorithm, the mean server-reported solve time (Result.ServerSolveMS,
// from the Server-Timing header) of uncached fully-served 200s. Cached
// answers never held a worker; truncated ones measure the deadline, not the
// work. Client latency is not used: it adds queue wait, which is what the
// simulator models, not a property of the solve. Algorithms with no usable
// sample fall back to DefaultMS, the mean over every usable sample.
func MeasureServiceModel(trace Trace, results []Result) ServiceModel {
	sums := make(map[string]float64)
	counts := make(map[string]int)
	var allSum float64
	var allN int
	for i, res := range results {
		if res.Status != 200 || res.Cached || res.Truncated || i >= len(trace) || trace[i].IsPatch() {
			continue
		}
		alg := trace[i].Algorithm
		sums[alg] += res.ServerSolveMS
		counts[alg]++
		allSum += res.ServerSolveMS
		allN++
	}
	m := ServiceModel{MSByAlgorithm: make(map[string]float64, len(sums)), DefaultMS: 1}
	if allN > 0 {
		m.DefaultMS = allSum / float64(allN)
	}
	for alg, sum := range sums {
		m.MSByAlgorithm[alg] = sum / float64(counts[alg])
	}
	return m
}

// Cost model for the counterfactual comparison, in "lost request" units: a
// fully served request costs 0; a truncated one costs its undelivered
// fraction (a solve cut off at 40% of its modeled service cost 0.6); a shed
// request costs ShedCost. Shedding is priced cheaper than delivering almost
// nothing — the client got an honest, instant 429 with a Retry-After
// instead of waiting a full deadline for a degenerate plan — but pricier
// than any mostly-complete solve.
const ShedCost = 0.3

// SimOutcome is one request's fate in a simulated run.
type SimOutcome struct {
	Outcome string `json:"outcome"`
	// WaitMS is the simulated queue wait before a worker started the
	// request (0 for shed requests).
	WaitMS float64 `json:"wait_ms"`
	// Delivered is the fraction of the request's modeled service completed
	// before its deadline (1 for untruncated, 0 for shed).
	Delivered float64 `json:"delivered"`
	Cost      float64 `json:"cost"`
	// Outstanding is the number of admission tokens held at the moment the
	// request arrived — the queue state its admission decision was made
	// against. Property tests replay admission rules against it.
	Outstanding int `json:"-"`
}

// SimRun aggregates one simulated replay of a trace under one admission
// policy.
type SimRun struct {
	Policy   string         `json:"policy"`
	Outcomes map[string]int `json:"outcomes"`
	// MeanCost is TotalCost averaged over every trace request — the
	// quantity regret is defined on.
	MeanCost  float64 `json:"mean_cost"`
	TotalCost float64 `json:"total_cost"`
	// PerRequest is indexed by Request.Index; it is reported for tests and
	// omitted from JSON.
	PerRequest []SimOutcome `json:"-"`
	// MaxHeld records, per instance, the peak number of admission slots
	// held at once — the quantity the fair policy bounds by FairShare.
	MaxHeld map[string]int `json:"-"`
}

// Simulate replays the trace through a deterministic discrete-event model
// of mroamd's admission layer under params.Policy: the same worker/queue
// token scheme, the same rejection rules — fairness, then deadline
// feasibility (via server.DeadlineFeasible, the very function the server
// calls), then capacity — and a deadline-truncation model in which an
// admitted request holds a worker for min(service, remaining budget).
//
// Two deliberate simplifications, both documented in DESIGN.md §13: service
// times come from the oracle ServiceModel rather than per-request noise,
// and the drain estimate is the stationary mean service time rather than
// the server's warm-up EWMA. Everything else — admission order, token
// accounting, completion scheduling — mirrors the server, so the simulated
// shed set under the server's own policy tracks the observed one.
func Simulate(trace Trace, params ServerParams, svc ServiceModel) SimRun {
	run := SimRun{
		Policy:     params.Policy,
		Outcomes:   make(map[string]int),
		PerRequest: make([]SimOutcome, len(trace)),
		MaxHeld:    make(map[string]int),
	}
	if params.Policy == "" {
		run.Policy = server.AdmitShed
	}
	if params.FairShare < 1 {
		params.FairShare = server.DefaultFairShare(params.Capacity())
	}
	svcEst := time.Duration(svc.meanMS(trace) * float64(time.Millisecond))

	// Arrival order: by timestamp, index-stable on ties — the order the
	// open-loop runner issues them.
	order := make([]int, len(trace))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return trace[order[a]].AtMS < trace[order[b]].AtMS })

	var (
		done    completionHeap
		fifo    []int          // admitted requests waiting for a worker
		running int            // requests holding a worker
		held    map[string]int // admission slots held per instance
	)
	held = make(map[string]int)

	start := func(idx int, now float64) {
		running++
		r := trace[idx]
		serviceMS := svc.ServiceMS(r.Algorithm)
		waitMS := now - r.AtMS
		holdMS, delivered := serviceMS, 1.0
		if r.DeadlineMS > 0 {
			if budget := float64(r.DeadlineMS) - waitMS; budget <= 0 {
				// Deadline spent in the queue: the solver observes an
				// already-expired context and returns immediately.
				holdMS, delivered = 0, 0
			} else if budget < serviceMS {
				holdMS, delivered = budget, budget/serviceMS
			}
		}
		outcome := OutcomeServed
		if delivered < 1 {
			outcome = OutcomeServedTruncated
		}
		run.PerRequest[idx] = SimOutcome{Outcome: outcome, WaitMS: waitMS, Delivered: delivered, Cost: 1 - delivered}
		heap.Push(&done, completion{at: now + holdMS, idx: idx})
	}

	shed := func(idx int, outcome string) {
		run.PerRequest[idx] = SimOutcome{Outcome: outcome, Cost: ShedCost}
	}

	outstandingAt := make([]int, len(trace))
	arrive := func(idx int) {
		r := trace[idx]
		if r.IsPatch() {
			// PATCHes never enter the admission layer: they hold no token,
			// cost nothing, and are invisible to every policy.
			run.PerRequest[idx] = SimOutcome{Outcome: OutcomePatched}
			return
		}
		now := r.AtMS
		outstanding := running + len(fifo)
		outstandingAt[idx] = outstanding
		// Mirror the server's check order: the fairness reservation comes
		// first, then deadline screening, then the queue-full select.
		if run.Policy == server.AdmitFair && held[r.Instance]+1 > params.FairShare {
			shed(idx, OutcomeShedFairness)
			return
		}
		if run.Policy == server.AdmitDeadline &&
			!server.DeadlineFeasible(r.Deadline(), outstanding, params.Workers, svcEst) {
			shed(idx, OutcomeShedDeadline)
			return
		}
		if outstanding >= params.Capacity() {
			shed(idx, OutcomeShedCapacity)
			return
		}
		held[r.Instance]++
		if held[r.Instance] > run.MaxHeld[r.Instance] {
			run.MaxHeld[r.Instance] = held[r.Instance]
		}
		if running < params.Workers {
			start(idx, now)
		} else {
			fifo = append(fifo, idx)
		}
	}

	complete := func(c completion) {
		running--
		held[trace[c.idx].Instance]--
		if len(fifo) > 0 {
			next := fifo[0]
			fifo = fifo[1:]
			start(next, c.at)
		}
	}

	// Event loop; on timestamp ties completions run first, matching the
	// server where a freed token is available to a same-instant arrival.
	ai := 0
	for ai < len(order) || done.Len() > 0 {
		if done.Len() > 0 && (ai >= len(order) || done[0].at <= trace[order[ai]].AtMS) {
			complete(heap.Pop(&done).(completion))
			continue
		}
		arrive(order[ai])
		ai++
	}

	solves := 0
	for i := range run.PerRequest {
		run.PerRequest[i].Outstanding = outstandingAt[i]
		run.Outcomes[run.PerRequest[i].Outcome]++
		run.TotalCost += run.PerRequest[i].Cost
		if !trace[i].IsPatch() {
			solves++
		}
	}
	// Mean over solve entries only: patches carry no admission cost, and
	// counting them would dilute the per-request regret the policies are
	// compared on.
	if solves > 0 {
		run.MeanCost = run.TotalCost / float64(solves)
	}
	return run
}

// completion is a scheduled worker release.
type completion struct {
	at  float64
	idx int
}

// completionHeap orders completions by time, index-stable on ties so the
// simulation is deterministic.
type completionHeap []completion

func (h completionHeap) Len() int { return len(h) }
func (h completionHeap) Less(a, b int) bool {
	if h[a].at != h[b].at {
		return h[a].at < h[b].at
	}
	return h[a].idx < h[b].idx
}
func (h completionHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *completionHeap) Push(x any)   { *h = append(*h, x.(completion)) }
func (h *completionHeap) Pop() any {
	old := *h
	n := len(old)
	c := old[n-1]
	*h = old[:n-1]
	return c
}

// Counterfactual prices one trace under the policy that served it and one
// alternative, on the same simulator with the same service model, and
// reports the regret of the choice: how much cheaper (positive) or pricier
// (negative) the run would have been per request under the alternative.
type Counterfactual struct {
	Baseline            string  `json:"baseline"`
	Alternative         string  `json:"alternative"`
	BaselineMeanCost    float64 `json:"baseline_mean_cost"`
	AlternativeMeanCost float64 `json:"alternative_mean_cost"`
	// Regret = BaselineMeanCost − AlternativeMeanCost: positive means the
	// alternative admission policy would have cost less on this exact
	// trace.
	Regret              float64        `json:"regret"`
	BaselineOutcomes    map[string]int `json:"baseline_outcomes"`
	AlternativeOutcomes map[string]int `json:"alternative_outcomes"`
}

// Policies lists every admission policy, in the order reports present them.
var Policies = []string{server.AdmitShed, server.AdmitDeadline, server.AdmitFair}

// Compare simulates the trace under params.Policy and under every other
// admission policy, returning one Counterfactual per alternative.
func Compare(trace Trace, params ServerParams, svc ServiceModel) []Counterfactual {
	base := Simulate(trace, params, svc)
	var out []Counterfactual
	for _, alt := range Policies {
		if alt == base.Policy {
			continue
		}
		altParams := params
		altParams.Policy = alt
		altRun := Simulate(trace, altParams, svc)
		out = append(out, Counterfactual{
			Baseline:            base.Policy,
			Alternative:         alt,
			BaselineMeanCost:    base.MeanCost,
			AlternativeMeanCost: altRun.MeanCost,
			Regret:              base.MeanCost - altRun.MeanCost,
			BaselineOutcomes:    base.Outcomes,
			AlternativeOutcomes: altRun.Outcomes,
		})
	}
	return out
}
