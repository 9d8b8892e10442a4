package mroam_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	mroam "repro"
)

// tinyInstance builds a small instance through the public API.
func tinyInstance(t *testing.T) *mroam.Instance {
	t.Helper()
	u, err := mroam.NewUniverse(12, []mroam.CoverageList{
		{0, 1, 2, 3},
		{4, 5, 6},
		{7, 8},
		{9, 10, 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := mroam.NewInstance(u, []mroam.Advertiser{
		{Demand: 4, Payment: 8},
		{Demand: 5, Payment: 10},
	}, mroam.DefaultGamma)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestPlanPersistenceThroughFacade(t *testing.T) {
	inst := tinyInstance(t)
	plan := mroam.GGlobal(inst)
	var buf bytes.Buffer
	if err := mroam.WritePlan(&buf, plan); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"version"`) {
		t.Error("plan JSON missing version")
	}
	back, err := mroam.ReadPlan(&buf, inst)
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalRegret() != plan.TotalRegret() {
		t.Fatal("plan round trip changed regret")
	}
}

func TestAuditAndRevenueThroughFacade(t *testing.T) {
	inst := tinyInstance(t)
	plan := mroam.BLS(inst, mroam.SearchOptions{Restarts: 2, Seed: 4})
	rows := mroam.Audit(plan)
	if len(rows) != 2 {
		t.Fatalf("%d audit rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Regret > rows[i-1].Regret {
			t.Fatal("audit not sorted by descending regret")
		}
	}
	rev := mroam.Revenue(plan)
	if rev < 0 || rev > inst.TotalPayment() {
		t.Fatalf("revenue %v outside [0, total payment]", rev)
	}
}

func TestImpressionsThroughFacade(t *testing.T) {
	u, err := mroam.NewUniverse(6, []mroam.CoverageList{
		{0, 1, 2, 3},
		{0, 1, 2, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := mroam.NewInstanceWithImpressions(u, []mroam.Advertiser{
		{Demand: 3, Payment: 6},
	}, mroam.DefaultGamma, 2)
	if err != nil {
		t.Fatal(err)
	}
	plan := mroam.GGlobal(inst)
	if plan.Influence(0) != 3 || plan.TotalRegret() != 0 {
		t.Fatalf("k=2 solve: influence %d regret %v", plan.Influence(0), plan.TotalRegret())
	}
}

func TestCoverageCounterThroughFacade(t *testing.T) {
	u, err := mroam.NewUniverse(5, []mroam.CoverageList{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	c := mroam.NewCoverageCounter(u)
	c.Add(0)
	if c.Gain(1) != 1 {
		t.Fatalf("Gain = %d, want 1", c.Gain(1))
	}
}

func TestSubuniverseThroughFacade(t *testing.T) {
	u, err := mroam.NewUniverse(4, []mroam.CoverageList{{0}, {1, 2}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := mroam.Subuniverse(u, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumBillboards() != 1 || sub.Degree(0) != 2 {
		t.Fatal("subuniverse wrong")
	}
}

func TestSimulateThroughFacade(t *testing.T) {
	ds, err := mroam.GenerateNYC(5, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	u, err := ds.BuildUniverse(mroam.DefaultLambda)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mroam.SimulationConfig{
		Days:             5,
		ArrivalsPerDay:   2,
		ContractMinDays:  1,
		ContractMaxDays:  2,
		DemandFractionLo: 0.05,
		DemandFractionHi: 0.15,
		Gamma:            mroam.DefaultGamma,
		Seed:             5,
	}
	res, err := mroam.Simulate(u, mroam.Algorithms(mroam.SearchOptions{Seed: 5, Restarts: 1})[1], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Days) != 5 {
		t.Fatalf("%d day reports", len(res.Days))
	}
	all, err := mroam.ComparePolicies(u, mroam.Algorithms(mroam.SearchOptions{Seed: 5, Restarts: 1})[:2], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("%d policy results", len(all))
	}
}

func TestHardnessThroughFacade(t *testing.T) {
	p, err := mroam.RandomN3DM(9, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := mroam.ReduceN3DM(p)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := mroam.Exact(inst)
	if err != nil {
		t.Fatal(err)
	}
	if opt.TotalRegret() != 0 {
		t.Fatalf("YES instance optimum = %v", opt.TotalRegret())
	}
	m, err := mroam.ExtractMatching(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.VerifyMatching(m); err != nil {
		t.Fatal(err)
	}
}

func TestGOrderThroughFacade(t *testing.T) {
	inst := tinyInstance(t)
	plan := mroam.GOrder(inst)
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(plan.TotalRegret()) {
		t.Fatal("NaN regret")
	}
}
