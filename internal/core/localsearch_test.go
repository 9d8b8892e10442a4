package core

import (
	"testing"

	"repro/internal/coverage"
	"repro/internal/rng"
)

// TestExample3BLSBeatsALS reproduces Example 3 of §6.2: exchanging whole
// advertiser sets (ALS) cannot improve the plan, but exchanging two
// billboards (BLS) reaches zero regret.
func TestExample3BLSBeatsALS(t *testing.T) {
	// x = 5. Trajectories t1..t6 (IDs 0..5).
	// o1 covers {t1..t4}, o2 covers {t1..t3, t5}, o3 covers {t5, t6}.
	u := coverage.MustUniverse(6, []coverage.List{
		{0, 1, 2, 3},
		{0, 1, 2, 4},
		{4, 5},
	})
	const gamma = 0.5
	inst := MustInstance(u, []Advertiser{
		{Demand: 5, Payment: 5}, // a1: I = x, L = x
		{Demand: 4, Payment: 4}, // a2: I = x−1, L = x−1
	}, gamma)

	build := func() *Plan {
		p := NewPlan(inst)
		p.Assign(0, 0) // S_1 = {o1, o2}: I = 5, satisfied exactly
		p.Assign(1, 0)
		p.Assign(2, 1) // S_2 = {o3}: I = 2 < 4
		return p
	}

	// Baseline: R = 0 + 4·(1 − 0.5·2/4) = 3.
	p := build()
	if got := p.TotalRegret(); got != 3 {
		t.Fatalf("baseline regret = %v, want 3", got)
	}

	// ALS: exchanging S_1 and S_2 gives R = 5·(1−0.5·2/5) + 4·(5−4)/4 = 5,
	// worse, so ALS accepts nothing and the regret stays at 3.
	alsPlan := build()
	if n, _ := advertiserLocalSearch(nil, alsPlan, 10, nil); n != 0 {
		t.Fatalf("ALS made %d exchanges, want 0", n)
	}
	if alsPlan.TotalRegret() != 3 {
		t.Fatalf("ALS regret = %v, want 3", alsPlan.TotalRegret())
	}

	// BLS: exchanging o1 ↔ o3 yields S_1 = {o2, o3} (I = 5) and
	// S_2 = {o1} (I = 4), total regret 0.
	blsPlan := build()
	billboardLocalSearch(nil, blsPlan, LocalSearchOptions{}, nil)
	if err := blsPlan.Validate(); err != nil {
		t.Fatal(err)
	}
	if blsPlan.TotalRegret() != 0 {
		t.Fatalf("BLS regret = %v, want 0", blsPlan.TotalRegret())
	}
}

func TestAdvertiserLocalSearchFindsGoodPairing(t *testing.T) {
	// Two sets already formed but mismatched to demands; exchanging the
	// whole sets fixes both advertisers.
	u := coverage.MustUniverse(9, []coverage.List{
		{0, 1, 2, 3, 4, 5}, // influence 6
		{6, 7, 8},          // influence 3
	})
	inst := MustInstance(u, []Advertiser{
		{Demand: 3, Payment: 9},
		{Demand: 6, Payment: 12},
	}, 0.5)
	p := NewPlan(inst)
	p.Assign(0, 0) // a1 gets influence 6 (wants 3) — over-satisfied
	p.Assign(1, 1) // a2 gets influence 3 (wants 6) — unsatisfied
	if p.TotalRegret() == 0 {
		t.Fatal("test setup should start with positive regret")
	}
	n, _ := advertiserLocalSearch(nil, p, 10, nil)
	if n != 1 {
		t.Fatalf("ALS exchanges = %d, want 1", n)
	}
	if p.TotalRegret() != 0 {
		t.Fatalf("ALS regret = %v, want 0", p.TotalRegret())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBLSReleaseMove(t *testing.T) {
	// A single advertiser holding a redundant billboard whose removal
	// reduces the excessive influence.
	u := coverage.MustUniverse(8, []coverage.List{
		{0, 1, 2, 3},
		{4, 5, 6, 7},
	})
	inst := MustInstance(u, []Advertiser{{Demand: 4, Payment: 8}}, 0.5)
	p := NewPlan(inst)
	p.Assign(0, 0)
	p.Assign(1, 0) // influence 8 vs demand 4: regret 8
	billboardLocalSearch(nil, p, LocalSearchOptions{}, nil)
	if p.TotalRegret() != 0 {
		t.Fatalf("BLS regret = %v, want 0 (release move)", p.TotalRegret())
	}
	if p.SetSize(0) != 1 {
		t.Fatalf("BLS kept %d billboards, want 1", p.SetSize(0))
	}
}

func TestBLSReplaceMove(t *testing.T) {
	// The assigned billboard overshoots; an unassigned one fits exactly.
	u := coverage.MustUniverse(9, []coverage.List{
		{0, 1, 2, 3, 4, 5}, // assigned: influence 6
		{6, 7, 8},          // free: influence 3 — exact fit
	})
	inst := MustInstance(u, []Advertiser{{Demand: 3, Payment: 6}}, 0.5)
	p := NewPlan(inst)
	p.Assign(0, 0)
	billboardLocalSearch(nil, p, LocalSearchOptions{}, nil)
	if p.TotalRegret() != 0 {
		t.Fatalf("BLS regret = %v, want 0 (replace move)", p.TotalRegret())
	}
	if p.Owner(1) != 0 || p.Owner(0) != Unassigned {
		t.Fatal("replace move not applied")
	}
}

func TestBLSAllocateMove(t *testing.T) {
	// Unassigned billboards that the greedy can use to satisfy a demand
	// (move 4: re-run synchronous greedy on the remainder).
	u := coverage.MustUniverse(6, []coverage.List{
		{0, 1, 2},
		{3, 4, 5},
	})
	inst := MustInstance(u, []Advertiser{{Demand: 6, Payment: 12}}, 0.5)
	p := NewPlan(inst)
	p.Assign(0, 0) // influence 3 < 6; b1 free
	billboardLocalSearch(nil, p, LocalSearchOptions{}, nil)
	if p.TotalRegret() != 0 {
		t.Fatalf("BLS regret = %v, want 0 (allocate move)", p.TotalRegret())
	}
}

func TestLocalSearchNeverWorsens(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 8; trial++ {
		inst := randomInstance(r, 300, 25, 30, 4, 1.0, 0.5)
		for _, kind := range []SearchKind{AdvertiserDriven, BillboardDriven} {
			p := GGlobal(inst)
			before := p.TotalRegret()
			localSearchDone(nil, p, LocalSearchOptions{Search: kind}.withDefaults(), nil)
			if p.TotalRegret() > before+1e-9 {
				t.Fatalf("trial %d: %v worsened regret %v → %v", trial, kind, before, p.TotalRegret())
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("trial %d %v: %v", trial, kind, err)
			}
		}
	}
}

func TestRandomizedLocalSearchAtLeastAsGoodAsGGlobal(t *testing.T) {
	r := rng.New(101)
	for trial := 0; trial < 5; trial++ {
		inst := randomInstance(r, 250, 20, 25, 4, 1.1, 0.5)
		base := GGlobal(inst).TotalRegret()
		for _, kind := range []SearchKind{AdvertiserDriven, BillboardDriven} {
			p := RandomizedLocalSearch(inst, LocalSearchOptions{
				Search:   kind,
				Restarts: 3,
				Seed:     uint64(trial),
			})
			if p.TotalRegret() > base+1e-9 {
				t.Fatalf("trial %d: RLS(%v) regret %v > G-Global %v", trial, kind, p.TotalRegret(), base)
			}
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestRandomizedLocalSearchDeterministicForSeed(t *testing.T) {
	r := rng.New(303)
	inst := randomInstance(r, 200, 15, 20, 3, 0.9, 0.5)
	opts := LocalSearchOptions{Search: BillboardDriven, Restarts: 3, Seed: 42}
	a := RandomizedLocalSearch(inst, opts)
	b := RandomizedLocalSearch(inst, opts)
	if a.TotalRegret() != b.TotalRegret() {
		t.Fatalf("same seed gave different regrets: %v vs %v", a.TotalRegret(), b.TotalRegret())
	}
	for i := 0; i < inst.NumAdvertisers(); i++ {
		sa, sb := a.Set(i, nil), b.Set(i, nil)
		if len(sa) != len(sb) {
			t.Fatalf("same seed gave different plans for advertiser %d", i)
		}
		for k := range sa {
			if sa[k] != sb[k] {
				t.Fatalf("same seed gave different plans for advertiser %d", i)
			}
		}
	}
}

func TestSeedRandomPlanWithFewBillboards(t *testing.T) {
	u := coverage.MustUniverse(4, []coverage.List{{0}, {1}})
	inst := MustInstance(u, []Advertiser{
		{Demand: 1, Payment: 1},
		{Demand: 1, Payment: 1},
		{Demand: 1, Payment: 1},
	}, 0.5)
	p := NewPlan(inst)
	seedRandomPlan(p, rng.New(1))
	assigned := 0
	for i := 0; i < 3; i++ {
		assigned += p.SetSize(i)
	}
	if assigned != 2 {
		t.Fatalf("seeded %d billboards, want 2 (pool size)", assigned)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBLSImprovementRatioLimitsMoves(t *testing.T) {
	// With a huge improvement threshold no move can qualify.
	u := coverage.MustUniverse(8, []coverage.List{
		{0, 1, 2, 3},
		{4, 5, 6, 7},
	})
	inst := MustInstance(u, []Advertiser{{Demand: 4, Payment: 8}}, 0.5)
	p := NewPlan(inst)
	p.Assign(0, 0)
	p.Assign(1, 0)
	before := p.TotalRegret()
	n, _ := billboardLocalSearch(nil, p, LocalSearchOptions{ImprovementRatio: 100}, nil)
	if n != 0 || p.TotalRegret() != before {
		t.Fatalf("threshold ignored: %d moves, regret %v → %v", n, before, p.TotalRegret())
	}
}

func TestSearchKindString(t *testing.T) {
	if AdvertiserDriven.String() != "ALS" || BillboardDriven.String() != "BLS" {
		t.Error("SearchKind strings wrong")
	}
	if SearchKind(9).String() == "" {
		t.Error("unknown SearchKind should stringify")
	}
}

func TestLocalSearchUnknownKindPanics(t *testing.T) {
	inst := smallInstance()
	p := NewPlan(inst)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown search kind did not panic")
		}
	}()
	localSearchDone(nil, p, LocalSearchOptions{Search: SearchKind(9)}.withDefaults(), nil)
}

// TestBLSApproximateLocalMaximum verifies the structural property behind
// Theorem 2: at a BLS fixed point (r = 0), no single release or single
// unassigned-billboard addition... additions are handled through the greedy
// allocate move, so we check the release direction of Definition 6.1: for
// every assigned billboard o, releasing o does not reduce the regret (i.e.
// does not increase the dual beyond the threshold).
func TestBLSApproximateLocalMaximum(t *testing.T) {
	r := rng.New(2024)
	inst := randomInstance(r, 300, 20, 30, 3, 1.0, 0.5)
	p := GGlobal(inst)
	billboardLocalSearch(nil, p, LocalSearchOptions{}, nil)
	for i := 0; i < inst.NumAdvertisers(); i++ {
		for _, b := range p.Set(i, nil) {
			loss := p.LossOf(i, b)
			after := inst.Regret(i, p.Influence(i)-loss)
			if after < p.Regret(i)-1e-6 {
				t.Fatalf("BLS fixed point violated: releasing %d from %d improves %v → %v",
					b, i, p.Regret(i), after)
			}
		}
	}
}
