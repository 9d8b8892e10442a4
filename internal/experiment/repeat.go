package experiment

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
)

// The paper evaluates efficiency as "the average result of five runs"
// (§7.1.4). RepeatedMetrics reruns one algorithm on one instance several
// times with distinct search seeds and summarizes both the regret (which
// varies across seeds for the randomized searches) and the wall-clock time
// (which varies with the machine), so reported numbers carry their spread.

// RepeatedMetrics is the summary of several runs of one method.
type RepeatedMetrics struct {
	Algorithm string
	Runs      int
	Regret    stats.Summary // across runs (identical for deterministic methods)
	Seconds   stats.Summary // wall-clock per run
	Evals     stats.Summary // work measure per run
}

// RunRepeated executes the method `runs` times. The greedy methods are
// deterministic, so only their timing varies; the local searches are
// re-seeded per run (base seed + run index) to expose their variance.
// runs < 1 selects the paper's 5.
func RunRepeated(inst *core.Instance, algName string, baseSeed uint64, restarts, runs int) (RepeatedMetrics, error) {
	if runs < 1 {
		runs = 5
	}
	out := RepeatedMetrics{Algorithm: algName, Runs: runs}
	regrets := make([]float64, 0, runs)
	seconds := make([]float64, 0, runs)
	evals := make([]float64, 0, runs)
	for k := 0; k < runs; k++ {
		alg, err := core.AlgorithmByNameOpts(algName, core.LocalSearchOptions{Seed: baseSeed + uint64(k), Restarts: restarts})
		if err != nil {
			return RepeatedMetrics{}, err
		}
		start := time.Now()
		plan := alg.SolveCtx(context.Background(), inst).Plan
		seconds = append(seconds, time.Since(start).Seconds())
		regrets = append(regrets, plan.TotalRegret())
		evals = append(evals, float64(plan.Evals()))
	}
	out.Regret = stats.Summarize(regrets)
	out.Seconds = stats.Summarize(seconds)
	out.Evals = stats.Summarize(evals)
	return out, nil
}

// RunAllRepeated applies RunRepeated to the paper's four methods.
func RunAllRepeated(inst *core.Instance, baseSeed uint64, restarts, runs int) ([]RepeatedMetrics, error) {
	var out []RepeatedMetrics
	for _, alg := range core.PaperAlgorithms(core.LocalSearchOptions{Seed: baseSeed, Restarts: restarts}) {
		m, err := RunRepeated(inst, alg.Name(), baseSeed, restarts, runs)
		if err != nil {
			return nil, fmt.Errorf("experiment: %s: %w", alg.Name(), err)
		}
		out = append(out, m)
	}
	return out, nil
}
