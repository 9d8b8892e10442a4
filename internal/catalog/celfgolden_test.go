package catalog

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestCELFPlansMatchGolden pins the lazy-greedy (CELF) selection path the
// way plans_base.golden pins the full scan: the full default NYC universe
// (400 billboards, the auto-mode CELF threshold, corridor-compressed) under
// a market of 15 small advertisers (α = 0.3, p = 2%), where the greedy
// makes over a hundred selections and the CELF bound skips about a quarter
// of the candidates. Every solver's regret, marginal-evaluation
// count, gain-cache counters and per-advertiser sets are recorded at a
// serial and a parallel worker count, so a change to how the CELF engine
// evaluates gains must leave its selections and its work accounting
// bit-identical.
//
// Regenerate (only for a deliberate, understood behavior change) with:
//
//	go test ./internal/catalog -run CELFPlansMatchGolden -update
func TestCELFPlansMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 40k-trajectory universe")
	}
	spec := Spec{City: "NYC", Scale: 1.0, Seed: 5, Alpha: 0.3, P: 0.02}.Normalized()
	inst, info, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if info.Billboards < 400 || info.Corridors >= info.Trajectories {
		t.Fatalf("instance %+v is not a corridor-compressed CELF-path universe", info)
	}

	var b strings.Builder
	for _, workers := range []int{1, 2} {
		opts := core.LocalSearchOptions{Seed: spec.Seed, Restarts: 1, Workers: workers}
		for _, name := range []string{"G-Order", "G-Global", "ALS", "BLS"} {
			alg, err := core.AlgorithmByNameOpts(name, opts)
			if err != nil {
				t.Fatal(err)
			}
			p := alg.SolveCtx(context.Background(), inst).Plan
			cs := p.CacheStats()
			fmt.Fprintf(&b, "%s workers=%d regret=%s evals=%d hits=%d misses=%d rescans=%d\n",
				name, workers, strconv.FormatFloat(p.TotalRegret(), 'g', -1, 64),
				p.Evals(), cs.Hits, cs.Misses, cs.Rescans)
			for i := 0; i < inst.NumAdvertisers(); i++ {
				fmt.Fprintf(&b, "  adv %d: %v\n", i, p.Set(i, nil))
			}
		}
	}
	got := b.String()

	const path = "testdata/plans_celf.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("CELF-path plans drifted from golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
