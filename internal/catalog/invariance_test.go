package catalog

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/market"
	"repro/internal/rng"
)

// TestSolversInvariantUnderCompression is the corridor substrate's
// end-to-end guarantee: every paper algorithm, serial or parallel, must
// return a bit-identical plan whether it runs on the dense per-trajectory
// universe or on the corridor-compressed one. This holds by construction —
// compression preserves every influence quantity the solvers and their
// tie-breaks read (Degree, TotalSupply, union counts, marginal gains) —
// and this test pins it against both cities' generators.
//
// It is deliberately run under -race -shuffle=on in `make check`: the
// workers=4 runs exercise the parallel restart loop on the weighted
// counter path.
func TestSolversInvariantUnderCompression(t *testing.T) {
	for _, city := range []string{"NYC", "SG"} {
		spec := Spec{City: city, Scale: 0.03, Seed: 9, Alpha: 1.2, P: 0.1}.Normalized()
		d, err := BuildDataset(spec)
		if err != nil {
			t.Fatal(err)
		}
		dense, err := d.BuildUniverse(spec.Lambda)
		if err != nil {
			t.Fatal(err)
		}
		comp, stats := coverage.Compress(dense)
		if stats.Corridors >= dense.NumTrajectories() {
			t.Fatalf("%s: no compression (%d corridors for %d trajectories) — test would be vacuous",
				city, stats.Corridors, dense.NumTrajectories())
		}
		build := func(u *coverage.Universe) *core.Instance {
			inst, err := Market(u, market.Config{Alpha: spec.Alpha, P: spec.P}, *spec.Gamma,
				rng.New(spec.Seed).Derive("market"))
			if err != nil {
				t.Fatal(err)
			}
			return inst
		}
		di, ci := build(dense), build(comp)

		for _, workers := range []int{1, 4} {
			opts := core.LocalSearchOptions{Seed: spec.Seed, Restarts: 2, Workers: workers}
			for _, name := range []string{"G-Order", "G-Global", "ALS", "BLS"} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", city, name, workers), func(t *testing.T) {
					alg, err := core.AlgorithmByNameOpts(name, opts)
					if err != nil {
						t.Fatal(err)
					}
					pd, pc := alg.SolveCtx(context.Background(), di).Plan, alg.SolveCtx(context.Background(), ci).Plan
					if pd.TotalRegret() != pc.TotalRegret() {
						t.Fatalf("regret dense %v, compressed %v", pd.TotalRegret(), pc.TotalRegret())
					}
					for a := 0; a < di.NumAdvertisers(); a++ {
						ds, cs := pd.Set(a, nil), pc.Set(a, nil)
						if !slices.Equal(ds, cs) {
							t.Fatalf("advertiser %d: dense set %v, compressed set %v", a, ds, cs)
						}
					}
				})
			}
		}
	}
}
