package core

import (
	"testing"

	"repro/internal/coverage"
	"repro/internal/rng"
)

// randomInstance builds a random instance whose total demand is roughly
// alpha times the supply, split across nAdv advertisers.
func randomInstance(r *rng.RNG, nTraj, nBB, maxDeg, nAdv int, alpha, gamma float64) *Instance {
	lists := make([]coverage.List, nBB)
	for b := range lists {
		deg := 1 + r.Intn(maxDeg)
		ids := make([]int32, deg)
		for i := range ids {
			ids[i] = int32(r.Intn(nTraj))
		}
		lists[b] = coverage.NewList(ids)
	}
	u := coverage.MustUniverse(nTraj, lists)
	supply := float64(u.TotalSupply())
	per := alpha * supply / float64(nAdv)
	advs := make([]Advertiser, nAdv)
	for i := range advs {
		d := int64(per * r.Range(0.8, 1.2))
		if d < 1 {
			d = 1
		}
		advs[i] = Advertiser{Demand: d, Payment: float64(d) * r.Range(0.9, 1.1)}
	}
	return MustInstance(u, advs, gamma)
}

func TestGreedyOrderProducesValidPlan(t *testing.T) {
	r := rng.New(41)
	for trial := 0; trial < 10; trial++ {
		inst := randomInstance(r, 300, 40, 30, 5, 0.8, 0.5)
		p := GreedyOrder(inst)
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestGreedyOrderServesBudgetEffectiveFirst(t *testing.T) {
	// Two advertisers wanting the same influence; only enough supply for
	// one. The budget-effective one (higher L/I) must be satisfied.
	u := coverage.MustUniverse(10, []coverage.List{
		{0, 1, 2, 3, 4},
		{5, 6, 7, 8, 9},
	})
	inst := MustInstance(u, []Advertiser{
		{Demand: 10, Payment: 5},  // L/I = 0.5
		{Demand: 10, Payment: 20}, // L/I = 2.0 — served first
	}, 0.5)
	p := GreedyOrder(inst)
	if !p.Satisfied(1) {
		t.Fatal("budget-effective advertiser not satisfied")
	}
	if p.Satisfied(0) {
		t.Fatal("low-effectiveness advertiser cannot also be satisfied")
	}
}

func TestGreedyOrderStopsAtSatisfaction(t *testing.T) {
	// Once satisfied, G-Order must not keep piling billboards on.
	u := coverage.MustUniverse(10, []coverage.List{
		{0, 1, 2}, {3, 4, 5}, {6, 7}, {8, 9},
	})
	inst := MustInstance(u, []Advertiser{{Demand: 3, Payment: 10}}, 0.5)
	p := GreedyOrder(inst)
	if p.Influence(0) != 3 || p.SetSize(0) != 1 {
		t.Fatalf("expected exactly one 3-influence billboard, got I=%d |S|=%d",
			p.Influence(0), p.SetSize(0))
	}
	if p.TotalRegret() != 0 {
		t.Fatalf("regret = %v, want 0", p.TotalRegret())
	}
}

func TestGreedyPrefersTightFit(t *testing.T) {
	// Demand 3 with billboards of influence 3 and 5: the greedy criterion
	// ΔR/I(o) favors the exact fit (ΔR equal, lower I(o) denominator...
	// actually ΔR differs: overshoot costs). Either way the chosen plan
	// must reach zero regret with the 3-billboard.
	u := coverage.MustUniverse(8, []coverage.List{
		{0, 1, 2},
		{3, 4, 5, 6, 7},
	})
	inst := MustInstance(u, []Advertiser{{Demand: 3, Payment: 9}}, 0.5)
	p := GreedyOrder(inst)
	if p.TotalRegret() != 0 {
		t.Fatalf("greedy picked overshooting billboard: regret %v", p.TotalRegret())
	}
}

func TestSynchronousGreedySharesInventory(t *testing.T) {
	// Two ideal billboards and two advertisers each demanding one ideal
	// billboard's influence. G-Order would serve them fine too, but the
	// synchronous greedy must also satisfy both (one billboard each).
	u := coverage.MustUniverse(20, []coverage.List{
		{0, 1, 2, 3, 4},
		{5, 6, 7, 8, 9},
		{10, 11},
		{12, 13},
	})
	inst := MustInstance(u, []Advertiser{
		{Demand: 5, Payment: 10},
		{Demand: 5, Payment: 10},
	}, 0.5)
	p := GGlobal(inst)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.SatisfiedCount() != 2 {
		t.Fatalf("satisfied %d advertisers, want 2 (I0=%d, I1=%d)",
			p.SatisfiedCount(), p.Influence(0), p.Influence(1))
	}
	if p.TotalRegret() != 0 {
		t.Fatalf("regret = %v, want 0", p.TotalRegret())
	}
}

func TestSynchronousGreedyReleasesWeakest(t *testing.T) {
	// Supply covers only one advertiser's demand; three advertisers are
	// competing. With the release rule the weakest (lowest L/I) must end
	// empty and at most one advertiser can remain partially served.
	u := coverage.MustUniverse(9, []coverage.List{
		{0, 1, 2}, {3, 4, 5}, {6, 7, 8},
	})
	inst := MustInstance(u, []Advertiser{
		{Demand: 9, Payment: 18}, // L/I = 2
		{Demand: 9, Payment: 9},  // L/I = 1
		{Demand: 9, Payment: 4},  // L/I ≈ 0.44 — weakest
	}, 0.5)
	p := GGlobal(inst)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !p.Satisfied(0) {
		t.Fatalf("strongest advertiser unsatisfied: I=%d", p.Influence(0))
	}
	if p.SetSize(2) != 0 {
		t.Fatalf("weakest advertiser kept %d billboards, want 0 (released)", p.SetSize(2))
	}
}

func TestSynchronousGreedyWithSeedPlan(t *testing.T) {
	// The local search framework runs the synchronous greedy on a non-empty
	// S^in; the seeded assignment must be preserved or improved upon, and
	// the result must remain valid.
	r := rng.New(7)
	inst := randomInstance(r, 400, 30, 40, 4, 1.0, 0.5)
	p := NewPlan(inst)
	seedRandomPlan(p, rng.New(5))
	seeded := make([]int, 0)
	for i := 0; i < inst.NumAdvertisers(); i++ {
		seeded = append(seeded, p.SetSize(i))
	}
	synchronousGreedyDone(nil, p)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Each advertiser keeps at least its seed unless it was released.
	for i, n := range seeded {
		if p.SetSize(i) != 0 && p.SetSize(i) < n {
			t.Fatalf("advertiser %d shrank from %d to %d without release", i, n, p.SetSize(i))
		}
	}
}

func TestSynchronousGreedyTerminatesOnExcessDemand(t *testing.T) {
	// α ≈ 3: demand hugely exceeds supply. The algorithm must terminate
	// and produce a valid plan.
	r := rng.New(13)
	inst := randomInstance(r, 200, 15, 20, 6, 3.0, 0.5)
	p := GGlobal(inst)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyOnEmptyAdvertisers(t *testing.T) {
	u := coverage.MustUniverse(5, []coverage.List{{0, 1}})
	inst := MustInstance(u, nil, 0.5)
	for _, alg := range []Algorithm{GOrderAlgorithm{}, GGlobalAlgorithm{}} {
		p := solve(alg, inst)
		if p.TotalRegret() != 0 {
			t.Errorf("%s: no advertisers should give zero regret", alg.Name())
		}
	}
}

func TestGreedyOnEmptyInventory(t *testing.T) {
	u := coverage.MustUniverse(0, nil)
	inst := MustInstance(u, []Advertiser{{Demand: 5, Payment: 10}}, 0.5)
	for _, alg := range []Algorithm{GOrderAlgorithm{}, GGlobalAlgorithm{}} {
		p := solve(alg, inst)
		if p.TotalRegret() != 10 {
			t.Errorf("%s: regret = %v, want 10 (nothing assignable)", alg.Name(), p.TotalRegret())
		}
	}
}

func TestZeroInfluenceBillboardsSkipped(t *testing.T) {
	u := coverage.MustUniverse(4, []coverage.List{{}, {0, 1, 2, 3}, {}})
	inst := MustInstance(u, []Advertiser{{Demand: 4, Payment: 8}}, 0.5)
	p := GGlobal(inst)
	if p.TotalRegret() != 0 {
		t.Fatalf("regret = %v, want 0", p.TotalRegret())
	}
	if p.Owner(0) != Unassigned || p.Owner(2) != Unassigned {
		t.Fatal("zero-influence billboards were assigned")
	}
}

func TestByBudgetEffectivenessOrder(t *testing.T) {
	u := coverage.MustUniverse(1, []coverage.List{{0}})
	inst := MustInstance(u, []Advertiser{
		{Demand: 10, Payment: 10}, // 1.0
		{Demand: 10, Payment: 30}, // 3.0
		{Demand: 10, Payment: 20}, // 2.0
	}, 0.5)
	order := byBudgetEffectiveness(inst)
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestGreedyPropertyValidPlans: both greedies produce structurally valid
// plans on arbitrary random instances across the workload space.
func TestGreedyPropertyValidPlans(t *testing.T) {
	r := rng.New(7117)
	for trial := 0; trial < 25; trial++ {
		alpha := r.Range(0.2, 2.0)
		gamma := r.Range(0, 1)
		nAdv := 1 + r.Intn(8)
		inst := randomInstance(r, 100+r.Intn(200), 5+r.Intn(25), 1+r.Intn(30), nAdv, alpha, gamma)
		for _, alg := range []Algorithm{GOrderAlgorithm{}, GGlobalAlgorithm{}} {
			p := solve(alg, inst)
			if err := p.Validate(); err != nil {
				t.Fatalf("trial %d %s: %v", trial, alg.Name(), err)
			}
			if p.TotalRegret() < 0 {
				t.Fatalf("trial %d %s: negative regret", trial, alg.Name())
			}
			// No advertiser may hold a billboard while over-satisfied by
			// a margin the greedy should not have created from scratch:
			// specifically the greedy stops assigning once satisfied, so
			// removing the last-added billboard of a satisfied advertiser
			// must drop it below the demand or it would not have been
			// added. Weak form checked here: every satisfied advertiser
			// with at least one billboard cannot discard a billboard and
			// remain satisfied without regret change... simply assert the
			// plan never assigns zero-influence billboards.
			u := inst.Universe()
			for b := 0; b < u.NumBillboards(); b++ {
				if p.Owner(b) != Unassigned && u.Degree(b) == 0 {
					t.Fatalf("trial %d %s: zero-influence billboard assigned", trial, alg.Name())
				}
			}
		}
	}
}

// TestGreedyOrderDeterministic: repeated runs produce identical plans.
func TestGreedyOrderDeterministic(t *testing.T) {
	r := rng.New(515)
	inst := randomInstance(r, 200, 20, 25, 4, 1.0, 0.5)
	a, b := GreedyOrder(inst), GreedyOrder(inst)
	for i := 0; i < inst.NumAdvertisers(); i++ {
		sa, sb := a.Set(i, nil), b.Set(i, nil)
		if len(sa) != len(sb) {
			t.Fatal("non-deterministic greedy")
		}
		for k := range sa {
			if sa[k] != sb[k] {
				t.Fatal("non-deterministic greedy")
			}
		}
	}
}
