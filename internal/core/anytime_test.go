package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/rng"
)

// assertSamePlan fails unless the two plans assign identical billboard sets
// to every advertiser and report identical regret and eval counters.
func assertSamePlan(t *testing.T, label string, got, want *Plan) {
	t.Helper()
	if g, w := got.TotalRegret(), want.TotalRegret(); g != w {
		t.Errorf("%s: regret %v, want %v", label, g, w)
	}
	if g, w := got.Evals(), want.Evals(); g != w {
		t.Errorf("%s: evals %d, want %d", label, g, w)
	}
	for i := 0; i < want.Instance().NumAdvertisers(); i++ {
		g, w := got.Set(i, nil), want.Set(i, nil)
		if len(g) != len(w) {
			t.Fatalf("%s: advertiser %d has %d billboards, want %d", label, i, len(g), len(w))
		}
		for k := range w {
			if g[k] != w[k] {
				t.Fatalf("%s: advertiser %d set %v, want %v", label, i, g, w)
			}
		}
	}
}

// TestAnytimeUncancelledMatchesBlocking pins the determinism caveat of the
// anytime contract: when the context never fires, the ctx entry point is
// bit-identical to the blocking one for any worker count.
func TestAnytimeUncancelledMatchesBlocking(t *testing.T) {
	r := rng.New(91)
	inst := randomInstance(r, 400, 30, 40, 4, 1.1, 0.5)
	for _, kind := range []SearchKind{AdvertiserDriven, BillboardDriven} {
		opts := LocalSearchOptions{Search: kind, Restarts: 4, Seed: 7}
		want := RandomizedLocalSearch(inst, opts)
		for _, workers := range []int{1, 2, 8} {
			opts.Workers = workers
			ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
			res := RandomizedLocalSearchCtx(ctx, inst, opts)
			cancel()
			if res.Truncated {
				t.Fatalf("%v workers=%d: truncated without a deadline firing", kind, workers)
			}
			if res.RestartsCompleted != res.RestartsRequested || res.RestartsCompleted != 4 {
				t.Fatalf("%v workers=%d: restarts %d/%d, want 4/4",
					kind, workers, res.RestartsCompleted, res.RestartsRequested)
			}
			if res.TotalRegret != res.Plan.TotalRegret() {
				t.Fatalf("%v workers=%d: TotalRegret field %v != plan %v",
					kind, workers, res.TotalRegret, res.Plan.TotalRegret())
			}
			assertSamePlan(t, kind.String(), res.Plan, want)
		}
	}
}

// TestAnytimeTruncationMatchesShorterRun is the deterministic-truncation
// table test: a run cancelled after k completed restart iterations must
// return the same plan (regret, sets, evals) as an uncancelled run
// configured with Restarts = k.
func TestAnytimeTruncationMatchesShorterRun(t *testing.T) {
	r := rng.New(92)
	inst := randomInstance(r, 300, 25, 30, 4, 1.2, 0.5)
	for _, kind := range []SearchKind{AdvertiserDriven, BillboardDriven} {
		for _, k := range []int{1, 2, 4} {
			ctx, cancel := context.WithCancel(context.Background())
			restartTestHook = func(job int) {
				if job == k {
					cancel()
				}
			}
			res := RandomizedLocalSearchCtx(ctx, inst,
				LocalSearchOptions{Search: kind, Restarts: 8, Seed: 5, Workers: 1})
			restartTestHook = nil
			cancel()

			if !res.Truncated {
				t.Fatalf("%v k=%d: not truncated", kind, k)
			}
			if res.RestartsCompleted != k {
				t.Fatalf("%v k=%d: RestartsCompleted = %d", kind, k, res.RestartsCompleted)
			}
			if err := res.Plan.Validate(); err != nil {
				t.Fatalf("%v k=%d: %v", kind, k, err)
			}
			want := RandomizedLocalSearch(inst,
				LocalSearchOptions{Search: kind, Restarts: k, Seed: 5, Workers: 1})
			assertSamePlan(t, kind.String(), res.Plan, want)
		}
	}
}

// TestAnytimeCancelReturnsQuickly bounds the cancellation latency: on a
// 600-billboard instance mid-solve, cancelling the context must unwind and
// return a valid best-so-far plan within 50ms.
func TestAnytimeCancelReturnsQuickly(t *testing.T) {
	r := rng.New(93)
	inst := randomInstance(r, 20000, 600, 300, 6, 1.2, 0.5)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	type outcome struct {
		res *Anytime
		at  time.Time
	}
	ch := make(chan outcome, 1)
	go func() {
		res := RandomizedLocalSearchCtx(ctx, inst,
			LocalSearchOptions{Search: BillboardDriven, Restarts: 50, Seed: 3, Workers: 2})
		ch <- outcome{res, time.Now()}
	}()

	time.Sleep(30 * time.Millisecond) // let the solve get going
	cancelledAt := time.Now()
	cancel()
	select {
	case out := <-ch:
		if lat := out.at.Sub(cancelledAt); lat > 50*time.Millisecond {
			t.Errorf("cancellation latency %v, want <= 50ms", lat)
		}
		if !out.res.Truncated {
			t.Error("50-restart BLS finished within 30ms — instance too small to exercise cancellation")
		}
		if out.res.Plan == nil {
			t.Fatal("nil plan after cancellation")
		}
		if err := out.res.Plan.Validate(); err != nil {
			t.Errorf("cancelled plan invalid: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("solve did not return within 5s of cancellation")
	}
}

// TestAnytimeExpiredContext covers the zero-budget edge: a context that is
// already cancelled still yields a structurally valid (possibly empty) plan.
func TestAnytimeExpiredContext(t *testing.T) {
	inst := smallInstance()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, alg := range PaperAlgorithms(LocalSearchOptions{Seed: 1, Restarts: 3}) {
		res := alg.SolveCtx(ctx, inst)
		if !res.Truncated {
			t.Errorf("%s: expired context not reported as truncated", alg.Name())
		}
		if res.Plan == nil {
			t.Fatalf("%s: nil plan", alg.Name())
		}
		if err := res.Plan.Validate(); err != nil {
			t.Errorf("%s: %v", alg.Name(), err)
		}
		if res.RestartsCompleted != 0 {
			t.Errorf("%s: RestartsCompleted = %d, want 0", alg.Name(), res.RestartsCompleted)
		}
	}
}

// solve runs alg to completion: SolveCtx under a context that never fires.
func solve(alg Algorithm, inst *Instance) *Plan {
	return alg.SolveCtx(context.Background(), inst).Plan
}

// TestAnytimeGreedySolveCtxMatchesSolve checks the greedy algorithms'
// anytime form against their blocking form under a context that never fires.
func TestAnytimeGreedySolveCtxMatchesSolve(t *testing.T) {
	r := rng.New(94)
	inst := randomInstance(r, 300, 20, 30, 3, 1.0, 0.5)
	for _, tc := range []struct {
		alg      Algorithm
		blocking func(*Instance) *Plan
	}{
		{GOrderAlgorithm{}, GreedyOrder},
		{GGlobalAlgorithm{}, GGlobal},
	} {
		res := tc.alg.SolveCtx(context.Background(), inst)
		if res.Truncated {
			t.Fatalf("%s: truncated under background context", tc.alg.Name())
		}
		assertSamePlan(t, tc.alg.Name(), res.Plan, tc.blocking(inst))
	}
}

// TestSolveAnytime checks the helper used by the serving layer.
func TestSolveAnytime(t *testing.T) {
	inst := smallInstance()
	res := SolveAnytime(context.Background(), BLSAlgorithm{Opts: LocalSearchOptions{Restarts: 2, Seed: 1}}, inst)
	if res.Truncated || res.Plan == nil {
		t.Fatalf("background solve truncated=%v plan=%v", res.Truncated, res.Plan)
	}
	if res.Evals < res.Plan.Evals() {
		t.Errorf("Evals %d < plan evals %d", res.Evals, res.Plan.Evals())
	}
}
