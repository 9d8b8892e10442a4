package core

import (
	"testing"

	"repro/internal/coverage"
	"repro/internal/rng"
)

func TestExactRefusesLargeInstances(t *testing.T) {
	lists := make([]coverage.List, ExactMaxBillboards+1)
	for i := range lists {
		lists[i] = coverage.List{}
	}
	u := coverage.MustUniverse(1, lists)
	inst := MustInstance(u, []Advertiser{{Demand: 1, Payment: 1}}, 0.5)
	if _, err := Exact(inst); err == nil {
		t.Fatal("Exact accepted an oversized instance")
	}
	// Search-space bound: 10 billboards × 20 advertisers = 21^10 ≈ 1.7e13.
	lists = make([]coverage.List, 10)
	for i := range lists {
		lists[i] = coverage.List{}
	}
	u = coverage.MustUniverse(1, lists)
	advs := make([]Advertiser, 20)
	for i := range advs {
		advs[i] = Advertiser{Demand: 1, Payment: 1}
	}
	inst = MustInstance(u, advs, 0.5)
	if _, err := Exact(inst); err == nil {
		t.Fatal("Exact accepted an oversized search space")
	}
}

func TestExactFindsZeroRegretWhenItExists(t *testing.T) {
	// Perfect partition: demands match billboard influences exactly.
	u := disjointUniverse([]int{3, 5, 2})
	inst := MustInstance(u, []Advertiser{
		{Demand: 5, Payment: 10},
		{Demand: 5, Payment: 10}, // must take {3, 2}
	}, 0.5)
	p, err := Exact(inst)
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalRegret() != 0 {
		t.Fatalf("Exact regret = %v, want 0", p.TotalRegret())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestExactLeavesBillboardsUnassignedWhenBetter(t *testing.T) {
	// One advertiser, demand 2; billboards of influence 2 and 5. The
	// optimum assigns only the 2 and leaves the 5 unassigned.
	u := disjointUniverse([]int{2, 5})
	inst := MustInstance(u, []Advertiser{{Demand: 2, Payment: 10}}, 0.5)
	p, err := Exact(inst)
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalRegret() != 0 {
		t.Fatalf("regret = %v, want 0", p.TotalRegret())
	}
	if p.Owner(1) != Unassigned {
		t.Fatal("optimum should leave the 5-influence billboard unassigned")
	}
}

// TestHeuristicsAgainstExact measures every heuristic against the optimum
// on random small instances: no heuristic may beat the optimum, and BLS
// must land within a reasonable factor on these easy instances.
func TestHeuristicsAgainstExact(t *testing.T) {
	r := rng.New(555)
	sumOpt, sumBLS := 0.0, 0.0
	for trial := 0; trial < 12; trial++ {
		inst := randomInstance(r, 60, 7, 12, 2, 0.9, 0.5)
		opt, err := Exact(inst)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range PaperAlgorithms(LocalSearchOptions{Seed: uint64(trial), Restarts: 3}) {
			p := solve(alg, inst)
			if err := p.Validate(); err != nil {
				t.Fatalf("trial %d %s: %v", trial, alg.Name(), err)
			}
			if p.TotalRegret() < opt.TotalRegret()-1e-9 {
				t.Fatalf("trial %d: %s regret %v beats optimum %v",
					trial, alg.Name(), p.TotalRegret(), opt.TotalRegret())
			}
			if alg.Name() == "BLS" {
				sumOpt += opt.TotalRegret()
				sumBLS += p.TotalRegret()
			}
		}
	}
	// Aggregate check: BLS should be within 2.5× of optimal on these tiny
	// instances (it is usually much closer; the bound is loose to keep
	// the test robust).
	if sumBLS > 2.5*sumOpt+1 {
		t.Fatalf("BLS aggregate regret %v too far from optimal %v", sumBLS, sumOpt)
	}
}

func TestAlgorithmByName(t *testing.T) {
	for _, name := range []string{"G-Order", "G-Global", "ALS", "BLS"} {
		alg, err := AlgorithmByNameOpts(name, LocalSearchOptions{Seed: 1, Restarts: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if alg.Name() != name {
			t.Fatalf("AlgorithmByNameOpts(%q).Name() = %q", name, alg.Name())
		}
	}
	if _, err := AlgorithmByNameOpts("Simplex", LocalSearchOptions{Seed: 1, Restarts: 2}); err == nil {
		t.Fatal("unknown algorithm name accepted")
	}
}

func TestPaperAlgorithmsOrder(t *testing.T) {
	algs := PaperAlgorithms(LocalSearchOptions{Seed: 1, Restarts: 2})
	want := []string{"G-Order", "G-Global", "ALS", "BLS"}
	if len(algs) != len(want) {
		t.Fatalf("%d algorithms, want %d", len(algs), len(want))
	}
	for i, alg := range algs {
		if alg.Name() != want[i] {
			t.Fatalf("algorithm %d is %q, want %q", i, alg.Name(), want[i])
		}
	}
}
