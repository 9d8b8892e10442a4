package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/coverage"
)

// disjointUniverse builds a universe where billboard i covers its own block
// of `degrees[i]` trajectories, with no overlap — the setting of the
// paper's Example 1 and the hardness reduction.
func disjointUniverse(degrees []int) *coverage.Universe {
	total := 0
	for _, d := range degrees {
		total += d
	}
	lists := make([]coverage.List, len(degrees))
	next := int32(0)
	for i, d := range degrees {
		l := make(coverage.List, d)
		for j := range l {
			l[j] = next
			next++
		}
		lists[i] = l
	}
	return coverage.MustUniverse(total, lists)
}

func TestNewInstanceValidation(t *testing.T) {
	u := disjointUniverse([]int{1})
	ok := []Advertiser{{Demand: 1, Payment: 1}}
	if _, err := NewInstance(nil, ok, 0.5); err == nil {
		t.Error("nil universe accepted")
	}
	if _, err := NewInstance(u, ok, -0.1); err == nil {
		t.Error("gamma < 0 accepted")
	}
	if _, err := NewInstance(u, ok, 1.1); err == nil {
		t.Error("gamma > 1 accepted")
	}
	if _, err := NewInstance(u, []Advertiser{{Demand: 0, Payment: 1}}, 0.5); err == nil {
		t.Error("zero demand accepted")
	}
	if _, err := NewInstance(u, []Advertiser{{Demand: 1, Payment: -1}}, 0.5); err == nil {
		t.Error("negative payment accepted")
	}
	inst, err := NewInstance(u, []Advertiser{{Demand: 5, Payment: 10}, {Demand: 3, Payment: 6}}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Advertiser(0).ID != 0 || inst.Advertiser(1).ID != 1 {
		t.Error("IDs not densely reassigned")
	}
}

func TestRegretEquation1(t *testing.T) {
	u := disjointUniverse([]int{10})
	inst := MustInstance(u, []Advertiser{{Demand: 10, Payment: 100}}, 0.5)
	tests := []struct {
		achieved int
		want     float64
	}{
		{0, 100},  // nothing achieved: full payment lost (γ·0 credit)
		{5, 75},   // 100·(1 − 0.5·5/10)
		{9, 55},   // 100·(1 − 0.5·9/10)
		{10, 0},   // exactly satisfied
		{15, 50},  // 100·(15−10)/10
		{20, 100}, // 100·(20−10)/10
	}
	for _, tt := range tests {
		if got := inst.Regret(0, tt.achieved); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Regret(achieved=%d) = %v, want %v", tt.achieved, got, tt.want)
		}
	}
}

func TestRegretGammaExtremes(t *testing.T) {
	u := disjointUniverse([]int{10})
	// γ = 0: no credit at all when unsatisfied.
	inst0 := MustInstance(u, []Advertiser{{Demand: 10, Payment: 50}}, 0)
	for _, achieved := range []int{0, 5, 9} {
		if got := inst0.Regret(0, achieved); got != 50 {
			t.Errorf("γ=0 Regret(%d) = %v, want 50", achieved, got)
		}
	}
	// γ = 1: credit proportional to satisfied fraction.
	inst1 := MustInstance(u, []Advertiser{{Demand: 10, Payment: 50}}, 1)
	if got := inst1.Regret(0, 5); math.Abs(got-25) > 1e-9 {
		t.Errorf("γ=1 Regret(5) = %v, want 25", got)
	}
	if got := inst1.Regret(0, 0); got != 50 {
		t.Errorf("γ=1 Regret(0) = %v, want 50", got)
	}
}

func TestRegretNonNegativeProperty(t *testing.T) {
	u := disjointUniverse([]int{1})
	check := func(demand uint16, payment uint16, gammaQ uint8, achieved uint16) bool {
		d := int64(demand)%1000 + 1
		gamma := float64(gammaQ%101) / 100
		inst := MustInstance(u, []Advertiser{{Demand: d, Payment: float64(payment)}}, gamma)
		r := inst.Regret(0, int(achieved))
		if r < 0 {
			return false
		}
		// Zero regret iff exact satisfaction (when payment > 0, γ < 1).
		if payment > 0 && gamma < 1 && (r == 0) != (int64(achieved) == d) {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDualRelationship(t *testing.T) {
	u := disjointUniverse([]int{1})
	// R + R′ = L when γ = 1, for any achieved influence (§6.3).
	inst := MustInstance(u, []Advertiser{{Demand: 20, Payment: 80}}, 1)
	for _, achieved := range []int{0, 7, 19, 20, 25, 60} {
		r := inst.Regret(0, achieved)
		rp := inst.Dual(0, achieved)
		if math.Abs(r+rp-80) > 1e-9 {
			t.Errorf("achieved=%d: R + R' = %v, want 80", achieved, r+rp)
		}
	}
	// R′ = L iff R = 0 for any γ.
	instHalf := MustInstance(u, []Advertiser{{Demand: 20, Payment: 80}}, 0.5)
	for _, achieved := range []int{0, 10, 19, 20, 21, 40} {
		r := instHalf.Regret(0, achieved)
		rp := instHalf.Dual(0, achieved)
		if (math.Abs(rp-80) < 1e-12) != (r < 1e-12) {
			t.Errorf("achieved=%d: R'=L should hold iff R=0 (R=%v, R'=%v)", achieved, r, rp)
		}
	}
}

func TestAggregates(t *testing.T) {
	u := disjointUniverse([]int{4, 6}) // supply I* = 10
	inst := MustInstance(u, []Advertiser{
		{Demand: 3, Payment: 7},
		{Demand: 5, Payment: 13},
	}, 0.5)
	if got := inst.TotalPayment(); got != 20 {
		t.Errorf("TotalPayment = %v", got)
	}
	if got := inst.TotalDemand(); got != 8 {
		t.Errorf("TotalDemand = %v", got)
	}
	if got := inst.DemandSupplyRatio(); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("DemandSupplyRatio = %v, want 0.8", got)
	}
	empty := MustInstance(coverage.MustUniverse(0, nil), nil, 0.5)
	if empty.DemandSupplyRatio() != 0 {
		t.Error("empty supply ratio should be 0")
	}
}

// TestPaperExample1 reproduces Tables 1-4 of the paper: six billboards with
// influences {2, 6, 3, 7, 1, 1} over disjoint audiences, three advertisers
// (I, L) = (5, $10), (7, $11), (8, $20). Strategy 1 leaves a3 unsatisfied
// and wastes influence on a1; Strategy 2 achieves zero regret.
func TestPaperExample1(t *testing.T) {
	u := disjointUniverse([]int{2, 6, 3, 7, 1, 1})
	const gamma = 0.5
	inst := MustInstance(u, []Advertiser{
		{Demand: 5, Payment: 10},
		{Demand: 7, Payment: 11},
		{Demand: 8, Payment: 20},
	}, gamma)
	o := func(i int) int { return i - 1 } // paper's 1-based billboard names

	strategy1 := NewPlan(inst)
	strategy1.Assign(o(2), 0)             // a1 ← {o2}: I = 6 > 5
	strategy1.Assign(o(4), 1)             // a2 ← {o4}: I = 7 = 7
	for _, b := range []int{1, 3, 5, 6} { // a3 ← {o1,o3,o5,o6}: I = 7 < 8
		strategy1.Assign(o(b), 2)
	}
	if got := strategy1.Influence(0); got != 6 {
		t.Fatalf("strategy 1: I(S_1) = %d, want 6", got)
	}
	if got := strategy1.Influence(2); got != 7 {
		t.Fatalf("strategy 1: I(S_3) = %d, want 7", got)
	}
	if strategy1.Satisfied(2) {
		t.Fatal("strategy 1 should leave a3 unsatisfied")
	}
	// R = 10·(6−5)/5 + 0 + 20·(1 − 0.5·7/8) = 2 + 11.25 = 13.25.
	if got := strategy1.TotalRegret(); math.Abs(got-13.25) > 1e-9 {
		t.Fatalf("strategy 1 regret = %v, want 13.25", got)
	}
	excess, unsat := strategy1.Breakdown()
	if math.Abs(excess-2) > 1e-9 || math.Abs(unsat-11.25) > 1e-9 {
		t.Fatalf("strategy 1 breakdown = (%v, %v), want (2, 11.25)", excess, unsat)
	}

	strategy2 := NewPlan(inst)
	strategy2.Assign(o(1), 0) // a1 ← {o1, o3}: I = 5
	strategy2.Assign(o(3), 0)
	strategy2.Assign(o(4), 1)          // a2 ← {o4}: I = 7
	for _, b := range []int{2, 5, 6} { // a3 ← {o2, o5, o6}: I = 8
		strategy2.Assign(o(b), 2)
	}
	if got := strategy2.TotalRegret(); got != 0 {
		t.Fatalf("strategy 2 regret = %v, want 0", got)
	}
	if strategy2.SatisfiedCount() != 3 {
		t.Fatal("strategy 2 should satisfy all advertisers")
	}

	// The zero-regret optimum exists, so Exact must find it.
	opt, err := Exact(inst)
	if err != nil {
		t.Fatal(err)
	}
	if opt.TotalRegret() != 0 {
		t.Fatalf("Exact regret = %v, want 0", opt.TotalRegret())
	}
}

// TestExample2NonSubmodular replays Example 2 of §6: the regret objective is
// neither monotone nor submodular.
func TestExample2NonSubmodular(t *testing.T) {
	// Universe: 10 trajectories. S1 covers 8, S2 ⊃ S1 covers 9, o adds 1
	// to either. Advertiser: I = 10, L = 10.
	u := coverage.MustUniverse(10, []coverage.List{
		{0, 1, 2, 3, 4, 5, 6, 7}, // b0: the set S1 collapsed to one billboard
		{8},                      // b1: S2 \ S1
		{9},                      // b2: the o of the example
		{0, 1},                   // b3: a redundant billboard (for monotonicity)
	})
	const gamma = 0.5
	inst := MustInstance(u, []Advertiser{{Demand: 10, Payment: 10}}, gamma)

	r := func(achieved int) float64 { return inst.Regret(0, achieved) }
	// Submodularity would require the marginal drop of adding o to shrink
	// as the base set grows: R(S1)−R(S1∪{o}) ≥ R(S2)−R(S2∪{o}).
	dropSmall := r(8) - r(9)  // 10−8γ − (10−9γ) = γ
	dropLarge := r(9) - r(10) // 10−9γ − 0 = 10−9γ
	if !(dropSmall < dropLarge) {
		t.Fatalf("expected non-submodular gap: drop at S1 = %v, drop at S2 = %v", dropSmall, dropLarge)
	}
	// Monotonicity fails too: past satisfaction, adding influence raises R.
	if !(r(11) > r(10)) {
		t.Fatal("expected regret to rise after over-satisfaction")
	}
}

func TestImpressionThresholdInstance(t *testing.T) {
	// Two billboards over the same three trajectories plus one unique
	// each; with k=2 only the shared trajectories count.
	u := coverage.MustUniverse(5, []coverage.List{
		{0, 1, 2, 3},
		{0, 1, 2, 4},
	})
	inst, err := NewInstanceWithImpressions(u, []Advertiser{{Demand: 3, Payment: 6}}, 0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Impressions() != 2 {
		t.Fatalf("Impressions = %d", inst.Impressions())
	}
	p := NewPlan(inst)
	p.Assign(0, 0)
	if p.Influence(0) != 0 {
		t.Fatalf("one billboard at k=2: influence = %d, want 0", p.Influence(0))
	}
	p.Assign(1, 0)
	if p.Influence(0) != 3 { // trajectories 0,1,2 meet both billboards
		t.Fatalf("influence = %d, want 3", p.Influence(0))
	}
	if p.TotalRegret() != 0 {
		t.Fatalf("regret = %v, want 0 (demand exactly met)", p.TotalRegret())
	}
	// k=1 over the same plan would see influence 5 and positive regret.
	inst1 := MustInstance(u, []Advertiser{{Demand: 3, Payment: 6}}, 0.5)
	p1 := NewPlan(inst1)
	p1.Assign(0, 0)
	p1.Assign(1, 0)
	if p1.Influence(0) != 5 {
		t.Fatalf("k=1 influence = %d, want 5", p1.Influence(0))
	}
	if p1.TotalRegret() <= 0 {
		t.Fatal("k=1 should over-satisfy and incur excess regret")
	}
}

func TestNewInstanceWithImpressionsValidation(t *testing.T) {
	u := disjointUniverse([]int{1})
	if _, err := NewInstanceWithImpressions(u, []Advertiser{{Demand: 1, Payment: 1}}, 0.5, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestAlgorithmsUnderImpressionMeasure(t *testing.T) {
	// The solvers must work unchanged under k=2: build a universe where
	// pairs of billboards overlap heavily, so double-impression coverage
	// is attainable.
	u := coverage.MustUniverse(12, []coverage.List{
		{0, 1, 2, 3},
		{0, 1, 2, 4},
		{5, 6, 7, 8},
		{5, 6, 7, 9},
		{10, 11},
	})
	inst, err := NewInstanceWithImpressions(u, []Advertiser{
		{Demand: 3, Payment: 9},
		{Demand: 3, Payment: 9},
	}, 0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range PaperAlgorithms(LocalSearchOptions{Seed: 3, Restarts: 3}) {
		p := solve(alg, inst)
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
	}
	p := solve(BLSAlgorithm{Opts: LocalSearchOptions{Restarts: 3, Seed: 1}}, inst)
	if p.TotalRegret() != 0 {
		t.Fatalf("BLS regret under k=2 = %v, want 0 (perfect pairing exists)", p.TotalRegret())
	}
}
