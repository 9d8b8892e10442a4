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

// TestBaseModelPlansMatchGolden pins the exact plans the four paper solvers
// produce on a catalog-built instance under the base regret model, at both a
// serial and a parallel worker count. The golden file was generated from the
// pre-Model-seam code, so this test is the refactor's bit-identical contract:
// lifting the objective behind core.Model must not change a single assignment
// or a single regret bit on the default model, at any worker count.
//
// Regenerate (only for a deliberate, understood behavior change) with:
//
//	go test ./internal/catalog -run BaseModelPlansMatchGolden -update
func TestBaseModelPlansMatchGolden(t *testing.T) {
	spec := Spec{City: "NYC", Scale: 0.03, Seed: 9, Alpha: 1.2, P: 0.1}.Normalized()
	inst, _, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	for _, workers := range []int{1, 4} {
		opts := core.LocalSearchOptions{Seed: spec.Seed, Restarts: 2, Workers: workers}
		for _, name := range []string{"G-Order", "G-Global", "ALS", "BLS"} {
			alg, err := core.AlgorithmByNameOpts(name, opts)
			if err != nil {
				t.Fatal(err)
			}
			p := alg.SolveCtx(context.Background(), inst).Plan
			fmt.Fprintf(&b, "%s workers=%d regret=%s\n", name, workers,
				strconv.FormatFloat(p.TotalRegret(), 'g', -1, 64))
			for i := 0; i < inst.NumAdvertisers(); i++ {
				set := p.Set(i, nil)
				fmt.Fprintf(&b, "  adv %d: %v\n", i, set)
			}
		}
	}
	got := b.String()

	const path = "testdata/plans_base.golden"
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
		t.Errorf("base-model plans drifted from pre-refactor golden (bit-identical contract broken):\ngot:\n%s\nwant:\n%s", got, want)
	}
}
