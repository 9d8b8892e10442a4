package mroam_test

import (
	"math"
	"testing"

	mroam "repro"
)

// TestEndToEndNYC drives the full public API path: generate city → build
// influence universe → generate market → solve with all four methods →
// compare outcomes.
func TestEndToEndNYC(t *testing.T) {
	ds, err := mroam.GenerateNYC(42, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	u, err := ds.BuildUniverse(mroam.DefaultLambda)
	if err != nil {
		t.Fatal(err)
	}
	advs, err := mroam.GenerateMarket(u, mroam.MarketConfig{Alpha: 1.0, P: 0.10}, 7)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := mroam.NewInstance(u, advs, mroam.DefaultGamma)
	if err != nil {
		t.Fatal(err)
	}

	gOrder := mroam.GOrder(inst)
	gGlobal := mroam.GGlobal(inst)
	opts := mroam.SearchOptions{Restarts: 2, Seed: 7}
	als := mroam.ALS(inst, opts)
	bls := mroam.BLS(inst, opts)

	for name, p := range map[string]*mroam.Plan{
		"G-Order": gOrder, "G-Global": gGlobal, "ALS": als, "BLS": bls,
	} {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.TotalRegret() < 0 {
			t.Fatalf("%s: negative regret", name)
		}
	}
	if als.TotalRegret() > gGlobal.TotalRegret()+1e-6 {
		t.Errorf("ALS (%v) worse than G-Global (%v)", als.TotalRegret(), gGlobal.TotalRegret())
	}
	if bls.TotalRegret() > gGlobal.TotalRegret()+1e-6 {
		t.Errorf("BLS (%v) worse than G-Global (%v)", bls.TotalRegret(), gGlobal.TotalRegret())
	}
}

// TestEndToEndSG exercises the bus-mode generator through the facade.
func TestEndToEndSG(t *testing.T) {
	ds, err := mroam.GenerateSG(42, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	u, err := ds.BuildUniverse(mroam.DefaultLambda)
	if err != nil {
		t.Fatal(err)
	}
	advs, err := mroam.GenerateMarket(u, mroam.MarketConfig{Alpha: 0.8, P: 0.20}, 3)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := mroam.NewInstance(u, advs, mroam.DefaultGamma)
	if err != nil {
		t.Fatal(err)
	}
	plan := mroam.BLS(inst, mroam.SearchOptions{Restarts: 1, Seed: 1})
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestNonGeographicUniverse exercises the direct-universe entry point that
// the telecom example builds on: the solvers work on any coverage
// structure, not just billboards.
func TestNonGeographicUniverse(t *testing.T) {
	// Three towers covering customer blocks, two operators.
	u, err := mroam.NewUniverse(10, []mroam.CoverageList{
		{0, 1, 2, 3},
		{4, 5, 6},
		{7, 8, 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := mroam.NewInstance(u, []mroam.Advertiser{
		{Demand: 4, Payment: 40},
		{Demand: 6, Payment: 55},
	}, mroam.DefaultGamma)
	if err != nil {
		t.Fatal(err)
	}
	plan := mroam.BLS(inst, mroam.SearchOptions{Restarts: 2, Seed: 5})
	if plan.TotalRegret() != 0 {
		t.Fatalf("regret = %v, want 0 (perfect partition exists)", plan.TotalRegret())
	}
	opt, err := mroam.Exact(inst)
	if err != nil {
		t.Fatal(err)
	}
	if opt.TotalRegret() != 0 {
		t.Fatal("Exact missed the zero-regret optimum")
	}
}

func TestAlgorithmsList(t *testing.T) {
	algs := mroam.Algorithms(mroam.SearchOptions{Seed: 1, Restarts: 2})
	want := []string{"G-Order", "G-Global", "ALS", "BLS"}
	if len(algs) != 4 {
		t.Fatalf("%d algorithms", len(algs))
	}
	for i, a := range algs {
		if a.Name() != want[i] {
			t.Errorf("algorithm %d = %q, want %q", i, a.Name(), want[i])
		}
	}
}

func TestExperimentFacade(t *testing.T) {
	exp := mroam.NewExperiment(mroam.ExperimentConfig{Scale: 0.02, Seed: 1, Restarts: 1})
	rows, err := exp.Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("Table5 rows = %d", len(rows))
	}
	figs, err := exp.Figure(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 1 || len(figs[0].Points) != 5 {
		t.Fatalf("Figure(4) shape wrong")
	}
	for _, pt := range figs[0].Points {
		for _, m := range pt.Metrics {
			if math.Abs(m.Excess+m.Unsatisfied-m.TotalRegret) > 1e-6 {
				t.Fatal("metrics breakdown inconsistent")
			}
		}
	}
}

func TestDatasetSaveLoadThroughFacade(t *testing.T) {
	ds, err := mroam.GenerateNYC(9, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := ds.Save(dir); err != nil {
		t.Fatal(err)
	}
	back, err := mroam.LoadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Trajectories.Len() != ds.Trajectories.Len() {
		t.Fatal("dataset round trip lost trajectories")
	}
}
