package hardness

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

func TestValidate(t *testing.T) {
	good := N3DM{X: []int{1, 2}, Y: []int{2, 1}, Z: []int{3, 3}, B: 6}
	if err := good.Validate(); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
	bad := []N3DM{
		{},
		{X: []int{1}, Y: []int{1, 2}, Z: []int{1}, B: 3},
		{X: []int{0}, Y: []int{1}, Z: []int{2}, B: 3},
		{X: []int{1}, Y: []int{1}, Z: []int{1}, B: 5}, // sum ≠ n·b
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad instance %d accepted", i)
		}
	}
}

func TestVerifyMatching(t *testing.T) {
	p := N3DM{X: []int{1, 2}, Y: []int{2, 1}, Z: []int{3, 3}, B: 6}
	good := []Triple{{0, 0, 0}, {1, 1, 1}} // 1+2+3, 2+1+3
	if err := p.VerifyMatching(good); err != nil {
		t.Errorf("valid matching rejected: %v", err)
	}
	cases := map[string][]Triple{
		"wrong length": {{0, 0, 0}},
		"bad sum":      {{0, 1, 0}, {1, 0, 1}}, // 1+1+3=5 ≠ 6
		"reuse":        {{0, 0, 0}, {0, 1, 1}},
		"out of range": {{0, 0, 0}, {1, 1, 5}},
	}
	for name, m := range cases {
		if err := p.VerifyMatching(m); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestSolveBruteForce(t *testing.T) {
	yes := N3DM{X: []int{1, 2}, Y: []int{2, 1}, Z: []int{3, 3}, B: 6}
	m, ok := yes.SolveBruteForce()
	if !ok {
		t.Fatal("solver missed existing matching")
	}
	if err := yes.VerifyMatching(m); err != nil {
		t.Fatalf("solver returned invalid matching: %v", err)
	}
	// NO instance: sums satisfy the necessary condition but no perfect
	// matching exists. X={1,3}, Y={1,3}, Z={2,2}, b=6: triples need
	// x+y=4: (1,3) and (3,1) both work... pick another:
	// X={1,2}, Y={1,2}, Z={2,4}, b=6: need x+y+z=6 → pairs (x,y) with
	// z=6-x-y ∈ {2,4}: (1,1)→4 ✓, (2,2)→2 ✓ → matching exists. Try:
	// X={1,1}, Y={1,3}, Z={2,4}, b=6: (1,1,4) ✓ then (1,3,2) ✓ — exists.
	// X={1,1}, Y={2,2}, Z={1,5}, b=6: (1,2,z=3)? no 3. (1,2,1)=4 no.
	// need z=3 for all — none. Matching impossible.
	no := N3DM{X: []int{1, 1}, Y: []int{2, 2}, Z: []int{1, 5}, B: 6}
	if err := no.Validate(); err != nil {
		t.Fatalf("NO instance should be structurally valid: %v", err)
	}
	if _, ok := no.SolveBruteForce(); ok {
		t.Fatal("solver found matching in NO instance")
	}
}

func TestRandomYesAlwaysSolvable(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 30; trial++ {
		p, err := RandomYes(r, 1+r.Intn(5), 3+r.Intn(10))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid instance: %v", trial, err)
		}
		m, ok := p.SolveBruteForce()
		if !ok {
			t.Fatalf("trial %d: YES instance unsolvable: %+v", trial, p)
		}
		if err := p.VerifyMatching(m); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRandomYesValidation(t *testing.T) {
	if _, err := RandomYes(rng.New(1), 0, 5); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := RandomYes(rng.New(1), 2, 2); err == nil {
		t.Error("maxVal=2 accepted")
	}
}

func TestReduceStructure(t *testing.T) {
	p := N3DM{X: []int{1, 2}, Y: []int{2, 1}, Z: []int{3, 3}, B: 6}
	inst, err := Reduce(p)
	if err != nil {
		t.Fatal(err)
	}
	c := ReductionScale(p)
	u := inst.Universe()
	if u.NumBillboards() != 6 {
		t.Fatalf("billboards = %d, want 3n = 6", u.NumBillboards())
	}
	if inst.NumAdvertisers() != 2 {
		t.Fatalf("advertisers = %d, want n = 2", inst.NumAdvertisers())
	}
	if inst.Gamma() != 0 {
		t.Fatalf("gamma = %v, want 0", inst.Gamma())
	}
	// Influence revision: c + x, 3c + y, 9c + z.
	if u.Degree(0) != c+1 || u.Degree(1) != c+2 {
		t.Error("X billboard influences wrong")
	}
	if u.Degree(2) != 3*c+2 || u.Degree(3) != 3*c+1 {
		t.Error("Y billboard influences wrong")
	}
	if u.Degree(4) != 9*c+3 || u.Degree(5) != 9*c+3 {
		t.Error("Z billboard influences wrong")
	}
	if inst.Advertiser(0).Demand != int64(p.B+13*c) {
		t.Error("demand wrong")
	}
}

func TestReduceRejectsInvalid(t *testing.T) {
	if _, err := Reduce(N3DM{}); err == nil {
		t.Fatal("Reduce accepted invalid instance")
	}
}

// TestReductionIfDirection is the "if" direction of the paper's Theorem 1,
// executable: a zero-regret MROAM plan yields a valid N3DM matching.
func TestReductionIfDirection(t *testing.T) {
	r := rng.New(21)
	for trial := 0; trial < 5; trial++ {
		p, err := RandomYes(r, 2, 6)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := Reduce(p)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := core.Exact(inst)
		if err != nil {
			t.Fatal(err)
		}
		if opt.TotalRegret() != 0 {
			t.Fatalf("trial %d: YES instance reduced to nonzero optimum %v", trial, opt.TotalRegret())
		}
		m, err := ExtractMatching(p, opt)
		if err != nil {
			t.Fatalf("trial %d: zero-regret plan is not a matching: %v", trial, err)
		}
		if err := p.VerifyMatching(m); err != nil {
			t.Fatalf("trial %d: extracted matching invalid: %v", trial, err)
		}
	}
}

// TestReductionOnlyIfDirection is the "only if" direction: a perfect
// matching yields a zero-regret plan.
func TestReductionOnlyIfDirection(t *testing.T) {
	r := rng.New(22)
	p, err := RandomYes(r, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := p.SolveBruteForce()
	if !ok {
		t.Fatal("YES instance unsolvable")
	}
	inst, err := Reduce(p)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanFromMatching(p, inst, m)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalRegret() != 0 {
		t.Fatalf("matching plan regret = %v, want 0", plan.TotalRegret())
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestReductionNoInstance checks the contrapositive: a NO instance reduces
// to an MROAM instance with strictly positive optimal regret.
func TestReductionNoInstance(t *testing.T) {
	no := N3DM{X: []int{1, 1}, Y: []int{2, 2}, Z: []int{1, 5}, B: 6}
	inst, err := Reduce(no)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := core.Exact(inst)
	if err != nil {
		t.Fatal(err)
	}
	if opt.TotalRegret() <= 0 {
		t.Fatalf("NO instance reduced to zero-regret optimum")
	}
}

func TestPlanFromMatchingRejectsBadMatching(t *testing.T) {
	p := N3DM{X: []int{1, 2}, Y: []int{2, 1}, Z: []int{3, 3}, B: 6}
	inst, err := Reduce(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PlanFromMatching(p, inst, []Triple{{0, 1, 0}, {1, 0, 1}}); err == nil {
		t.Fatal("invalid matching accepted")
	}
}

// TestBLSOnReducedInstance runs the paper's best heuristic on reduced
// instances; it needn't find the optimum (the whole point of the hardness
// result), but it must return a valid plan without error.
func TestBLSOnReducedInstance(t *testing.T) {
	r := rng.New(23)
	p, err := RandomYes(r, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Reduce(p)
	if err != nil {
		t.Fatal(err)
	}
	plan := core.BLSAlgorithm{Opts: core.LocalSearchOptions{Restarts: 3, Seed: 1}}.SolveCtx(context.Background(), inst).Plan
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
}
