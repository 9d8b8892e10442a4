package mroam_test

import (
	"context"
	"testing"
	"time"

	mroam "repro"
)

// TestBLSDeadlineNYCScale is the serving-layer acceptance scenario: a BLS
// solve on the full synthetic NYC-scale instance (40k trips, 400
// billboards) under a 100ms deadline must come back quickly with a valid
// (disjoint, well-formed) truncated plan, and the same solve without a
// deadline must be bit-identical for every worker count.
func TestBLSDeadlineNYCScale(t *testing.T) {
	ds, err := mroam.GenerateNYC(42, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	u, err := ds.BuildUniverse(mroam.DefaultLambda)
	if err != nil {
		t.Fatal(err)
	}
	advs, err := mroam.GenerateMarket(u, mroam.MarketConfig{Alpha: mroam.DefaultAlpha, P: mroam.DefaultP}, 7)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := mroam.NewInstance(u, advs, mroam.DefaultGamma)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	res := mroam.SolveAnytime(ctx, bls(mroam.SearchOptions{Restarts: 10, Seed: 7}), inst)
	elapsed := time.Since(start)

	if !res.Truncated {
		t.Fatal("full-scale BLS finished 10 restarts inside 100ms — deadline never exercised")
	}
	if res.Plan == nil {
		t.Fatal("nil plan under deadline")
	}
	if err := res.Plan.Validate(); err != nil {
		t.Fatalf("deadline-bounded plan invalid: %v", err)
	}
	// Generous bound: the deadline plus the documented cancellation
	// latency, with slack for slow CI machines.
	if elapsed > 2*time.Second {
		t.Errorf("100ms-deadline solve took %v", elapsed)
	}

	// No deadline: worker count must not change the answer, and the ctx
	// entry point must match the blocking one bit for bit. Full-scale BLS
	// restarts cost tens of seconds each, so this half runs on a smaller
	// NYC instance (core's worker-invariance tests pin the same property
	// on random instances).
	small := nycInstance(t, 0.1)
	opts := mroam.SearchOptions{Restarts: 3, Seed: 7, Workers: 1}
	want := mroam.BLS(small, opts)
	for _, workers := range []int{2, 4} {
		opts.Workers = workers
		got := mroam.SolveAnytime(context.Background(), bls(opts), small)
		if got.Truncated {
			t.Fatalf("workers=%d: background-context solve reported truncated", workers)
		}
		if got.TotalRegret != want.TotalRegret() || got.Plan.Evals() != want.Evals() {
			t.Errorf("workers=%d: regret %v evals %d, want %v / %d",
				workers, got.TotalRegret, got.Plan.Evals(), want.TotalRegret(), want.Evals())
		}
	}
}

// bls returns the facade's BLS algorithm, the last of the paper's four.
func bls(opts mroam.SearchOptions) mroam.Algorithm {
	return mroam.Algorithms(opts)[3]
}

// nycInstance builds a synthetic NYC instance at the given scale with the
// paper's default market knobs.
func nycInstance(t *testing.T, scale float64) *mroam.Instance {
	t.Helper()
	ds, err := mroam.GenerateNYC(42, scale)
	if err != nil {
		t.Fatal(err)
	}
	u, err := ds.BuildUniverse(mroam.DefaultLambda)
	if err != nil {
		t.Fatal(err)
	}
	advs, err := mroam.GenerateMarket(u, mroam.MarketConfig{Alpha: mroam.DefaultAlpha, P: mroam.DefaultP}, 7)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := mroam.NewInstance(u, advs, mroam.DefaultGamma)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}
