package workload

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// overloadedParams is a deployment the test traces comfortably saturate:
// 2 workers, 4 admission tokens.
func overloadedParams(policy string) ServerParams {
	return ServerParams{Workers: 2, QueueDepth: 2, Policy: policy, FairShare: 2}
}

// slowModel makes every request hold a worker for 50ms — at 200 req/s the
// offered load is 10 worker-seconds per second against 2 workers, a 5×
// overload.
var slowModel = ServiceModel{DefaultMS: 50}

func overloadTrace(t *testing.T, seed uint64, deadlines []int64, instances []string) Trace {
	t.Helper()
	tr, err := Generate(Config{
		Seed:        seed,
		Duration:    2 * time.Second,
		Rate:        200,
		Instances:   instances,
		Algorithms:  []string{"G-Order"},
		DeadlinesMS: deadlines,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestSimulateDeterministic: the simulator is a pure function of its
// inputs.
func TestSimulateDeterministic(t *testing.T) {
	tr := overloadTrace(t, 11, []int64{0, 30, 120}, []string{"", "sg"})
	for _, policy := range Policies {
		a := Simulate(tr, overloadedParams(policy), slowModel)
		b := Simulate(tr, overloadedParams(policy), slowModel)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: two simulations of the same trace disagree", policy)
		}
	}
}

// TestSimulateConservation: every request gets exactly one outcome, and
// per-request costs stay in [0, 1].
func TestSimulateConservation(t *testing.T) {
	tr := overloadTrace(t, 12, []int64{0, 30}, []string{"", "sg"})
	for _, policy := range Policies {
		run := Simulate(tr, overloadedParams(policy), slowModel)
		total := 0
		for _, n := range run.Outcomes {
			total += n
		}
		if total != len(tr) {
			t.Fatalf("%s: %d outcomes for %d requests", policy, total, len(tr))
		}
		for i, o := range run.PerRequest {
			if o.Cost < 0 || o.Cost > 1 {
				t.Fatalf("%s: request %d cost %v outside [0,1]", policy, i, o.Cost)
			}
			if o.Outcome == "" {
				t.Fatalf("%s: request %d has no outcome", policy, i)
			}
		}
	}
}

// TestSimulateShedPolicyOnlyCapacity: the default policy never sheds for
// any reason other than a full queue — the simulated counterpart of the
// server's backward-compatibility guarantee — and under overload it does
// shed.
func TestSimulateShedPolicyOnlyCapacity(t *testing.T) {
	tr := overloadTrace(t, 13, []int64{0, 30}, []string{"", "sg"})
	run := Simulate(tr, overloadedParams(server.AdmitShed), slowModel)
	if run.Outcomes[OutcomeShedDeadline] != 0 || run.Outcomes[OutcomeShedFairness] != 0 {
		t.Fatalf("shed policy used policy-specific rejections: %v", run.Outcomes)
	}
	if run.Outcomes[OutcomeShedCapacity] == 0 {
		t.Fatalf("5× overload produced no capacity sheds: %v", run.Outcomes)
	}
	// Every capacity shed happened with the queue actually full.
	for i, o := range run.PerRequest {
		if o.Outcome == OutcomeShedCapacity && o.Outstanding < overloadedParams("").Capacity() {
			t.Fatalf("request %d shed with only %d/%d tokens held", i, o.Outstanding, overloadedParams("").Capacity())
		}
	}
}

// TestSimulateDeadlineAdmittedSetFeasible is the feasible-by-construction
// property: under the deadline policy, every admitted deadline-carrying
// request was feasible — per server.DeadlineFeasible, the function the live
// server runs — against the queue state at its admission, and every
// deadline shed was infeasible against it.
func TestSimulateDeadlineAdmittedSetFeasible(t *testing.T) {
	params := overloadedParams(server.AdmitDeadline)
	for seed := uint64(0); seed < 10; seed++ {
		tr := overloadTrace(t, seed, []int64{5, 40, 200}, nil)
		run := Simulate(tr, params, slowModel)
		svcEst := time.Duration(slowModel.meanMS(tr) * float64(time.Millisecond))
		for i, o := range run.PerRequest {
			feasible := server.DeadlineFeasible(tr[i].Deadline(), o.Outstanding, params.Workers, svcEst)
			switch o.Outcome {
			case OutcomeShedDeadline:
				if feasible {
					t.Fatalf("seed %d: request %d shed as infeasible but DeadlineFeasible=true (outstanding %d)",
						seed, i, o.Outstanding)
				}
			case OutcomeServed, OutcomeServedTruncated:
				if !feasible {
					t.Fatalf("seed %d: request %d admitted while infeasible (deadline %v, outstanding %d)",
						seed, i, tr[i].Deadline(), o.Outstanding)
				}
			}
		}
		if run.Outcomes[OutcomeShedDeadline] == 0 {
			t.Fatalf("seed %d: overload with 5ms deadlines produced no deadline sheds: %v", seed, run.Outcomes)
		}
	}
}

// TestSimulateFairnessCap is the fairness property: under the fair policy
// no instance ever holds more than FairShare admission slots, even when one
// instance sends 90% of the traffic — while the shed policy lets the hot
// instance monopolize the queue on the same trace.
func TestSimulateFairnessCap(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		// 9:1 hot:cold adversarial mix.
		hot := []string{"hot", "hot", "hot", "hot", "hot", "hot", "hot", "hot", "hot", "cold"}
		tr := overloadTrace(t, seed, nil, hot)
		params := overloadedParams(server.AdmitFair)
		run := Simulate(tr, params, slowModel)
		for inst, peak := range run.MaxHeld {
			if peak > params.FairShare {
				t.Fatalf("seed %d: instance %q peaked at %d slots, fair share is %d",
					seed, inst, peak, params.FairShare)
			}
		}
		if run.Outcomes[OutcomeShedFairness] == 0 {
			t.Fatalf("seed %d: 9:1 mix produced no fairness sheds: %v", seed, run.Outcomes)
		}
		base := Simulate(tr, overloadedParams(server.AdmitShed), slowModel)
		if base.MaxHeld["hot"] <= params.FairShare {
			t.Fatalf("seed %d: shed policy never exceeded the fair share (peak %d) — mix not adversarial enough",
				seed, base.MaxHeld["hot"])
		}
	}
}

// TestSimulateDeadlinePolicyReducesWaste: on an overloaded trace of
// tight-deadline requests, deadline screening must strictly reduce the
// count of fully-wasted solves (admitted but expired before any work)
// relative to the blind shed policy.
func TestSimulateDeadlinePolicyReducesWaste(t *testing.T) {
	tr := overloadTrace(t, 21, []int64{30}, nil)
	wasted := func(run SimRun) int {
		n := 0
		for _, o := range run.PerRequest {
			if o.Outcome == OutcomeServedTruncated && o.Delivered == 0 {
				n++
			}
		}
		return n
	}
	shed := Simulate(tr, overloadedParams(server.AdmitShed), slowModel)
	deadline := Simulate(tr, overloadedParams(server.AdmitDeadline), slowModel)
	if wasted(deadline) >= wasted(shed) && wasted(shed) > 0 {
		t.Fatalf("deadline policy wasted %d solves, shed policy %d — screening bought nothing",
			wasted(deadline), wasted(shed))
	}
}

// TestCompareRegretArithmetic: Compare prices the baseline once per
// alternative with consistent regret arithmetic, and never compares the
// baseline to itself.
func TestCompareRegretArithmetic(t *testing.T) {
	tr := overloadTrace(t, 22, []int64{0, 30}, []string{"", "sg"})
	params := overloadedParams(server.AdmitDeadline)
	cfs := Compare(tr, params, slowModel)
	if len(cfs) != len(Policies)-1 {
		t.Fatalf("%d counterfactuals, want %d", len(cfs), len(Policies)-1)
	}
	for _, cf := range cfs {
		if cf.Baseline != server.AdmitDeadline {
			t.Errorf("baseline %q, want deadline", cf.Baseline)
		}
		if cf.Alternative == cf.Baseline {
			t.Errorf("self-comparison in counterfactuals")
		}
		if got := cf.BaselineMeanCost - cf.AlternativeMeanCost; math.Abs(got-cf.Regret) > 1e-12 {
			t.Errorf("regret %v inconsistent with costs %v - %v", cf.Regret, cf.BaselineMeanCost, cf.AlternativeMeanCost)
		}
	}
}

// TestMeasureServiceModel: the fitted model averages the server solve time
// of uncached, untruncated 200s only, keys by algorithm, and ignores client
// latency — rows 5 and 6 waited in the queue far longer than they solved.
func TestMeasureServiceModel(t *testing.T) {
	tr := Trace{
		{Index: 0, Algorithm: "G-Order"},
		{Index: 1, Algorithm: "G-Order"},
		{Index: 2, Algorithm: "BLS"},
		{Index: 3, Algorithm: "BLS"},
		{Index: 4, Algorithm: "BLS"},
		{Index: 5, Algorithm: "G-Order"},
		{Index: 6, Algorithm: "BLS"},
	}
	results := []Result{
		{Index: 0, Status: 200, LatencyMS: 10, ServerSolveMS: 10},
		{Index: 1, Status: 200, LatencyMS: 20, ServerSolveMS: 20},
		{Index: 2, Status: 200, LatencyMS: 100, ServerSolveMS: 100},
		{Index: 3, Status: 200, LatencyMS: 999, ServerSolveMS: 999, Cached: true},    // excluded
		{Index: 4, Status: 200, LatencyMS: 999, ServerSolveMS: 999, Truncated: true}, // excluded
		{Index: 5, Status: 200, LatencyMS: 480, ServerSolveMS: 15},
		{Index: 6, Status: 200, LatencyMS: 900, ServerSolveMS: 100},
	}
	m := MeasureServiceModel(tr, results)
	if got := m.ServiceMS("G-Order"); got != 15 {
		t.Errorf("G-Order %v, want 15", got)
	}
	if got := m.ServiceMS("BLS"); got != 100 {
		t.Errorf("BLS %v, want 100", got)
	}
	// Unknown algorithms fall back to the pooled mean.
	if got := m.ServiceMS("ALS"); math.Abs(got-245.0/5) > 1e-9 {
		t.Errorf("fallback %v, want %v", got, 245.0/5)
	}
}

// TestSimulateEmptyTrace: degenerate inputs stay well-defined.
func TestSimulateEmptyTrace(t *testing.T) {
	run := Simulate(nil, overloadedParams(server.AdmitShed), slowModel)
	if run.MeanCost != 0 || run.TotalCost != 0 || len(run.PerRequest) != 0 {
		t.Fatalf("empty trace produced work: %+v", run)
	}
	if !strings.HasPrefix(Trace(nil).SHA256(), "e3b0c44298fc1c149afbf4c8996fb924") {
		t.Fatalf("empty trace digest is not SHA-256 of empty input")
	}
}
