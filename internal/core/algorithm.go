package core

import (
	"context"
	"fmt"
	"strings"
)

// Algorithm is a named MROAM solver. The four methods compared in the
// paper's evaluation all implement it. Solving is ctx-first: SolveCtx runs
// under the anytime contract of anytime.go, and a context that never fires
// (context.Background()) yields the plain blocking run.
type Algorithm interface {
	// Name returns the method name as used in the paper's figures.
	Name() string
	// SolveCtx computes a plan under ctx, returning the best complete
	// plan found so far if ctx fires mid-solve.
	SolveCtx(ctx context.Context, inst *Instance) *Anytime
}

// greedyAnytime packages a ctx-bounded greedy run as an Anytime result.
// The greedy algorithms have no restart loop, so both restart counters
// stay 0 and Truncated simply reports whether the greedy converged.
func greedyAnytime(p *Plan, completed bool) *Anytime {
	p.dropGainCache()
	return &Anytime{
		Plan:        p,
		TotalRegret: p.TotalRegret(),
		Truncated:   !completed,
		Evals:       p.Evals(),
		Cache:       p.CacheStats(),
	}
}

// GOrderAlgorithm is the budget-effective greedy, "G-Order" in the figures.
type GOrderAlgorithm struct{}

// Name implements Algorithm.
func (GOrderAlgorithm) Name() string { return "G-Order" }

// SolveCtx implements Algorithm.
func (GOrderAlgorithm) SolveCtx(ctx context.Context, inst *Instance) *Anytime {
	return greedyAnytime(greedyOrder(ctxDone(ctx), inst))
}

// GGlobalAlgorithm is the synchronous greedy, "G-Global" in the figures.
type GGlobalAlgorithm struct{}

// Name implements Algorithm.
func (GGlobalAlgorithm) Name() string { return "G-Global" }

// SolveCtx implements Algorithm.
func (GGlobalAlgorithm) SolveCtx(ctx context.Context, inst *Instance) *Anytime {
	p := NewPlan(inst)
	completed := synchronousGreedyDone(ctxDone(ctx), p)
	return greedyAnytime(p, completed)
}

// ALSAlgorithm is the randomized local search framework with the
// advertiser-driven neighborhood, "ALS" in the figures.
type ALSAlgorithm struct {
	Opts LocalSearchOptions
}

// Name implements Algorithm.
func (ALSAlgorithm) Name() string { return "ALS" }

// SolveCtx implements Algorithm.
func (a ALSAlgorithm) SolveCtx(ctx context.Context, inst *Instance) *Anytime {
	opts := a.Opts
	opts.Search = AdvertiserDriven
	return RandomizedLocalSearchCtx(ctx, inst, opts)
}

// BLSAlgorithm is the randomized local search framework with the
// billboard-driven neighborhood, "BLS" in the figures.
type BLSAlgorithm struct {
	Opts LocalSearchOptions
}

// Name implements Algorithm.
func (BLSAlgorithm) Name() string { return "BLS" }

// SolveCtx implements Algorithm.
func (b BLSAlgorithm) SolveCtx(ctx context.Context, inst *Instance) *Anytime {
	opts := b.Opts
	opts.Search = BillboardDriven
	return RandomizedLocalSearchCtx(ctx, inst, opts)
}

// PaperAlgorithms returns the four methods of the evaluation section in the
// paper's presentation order, configured with the given local search
// options (seed, restart count, improvement ratio, worker count; Restarts
// < 1 selects DefaultRestarts). The Search field is overridden per method.
func PaperAlgorithms(opts LocalSearchOptions) []Algorithm {
	return []Algorithm{
		GOrderAlgorithm{},
		GGlobalAlgorithm{},
		ALSAlgorithm{Opts: opts},
		BLSAlgorithm{Opts: opts},
	}
}

// AlgorithmByNameOpts returns the paper algorithm with the given figure
// name, configured with the given local search options.
func AlgorithmByNameOpts(name string, opts LocalSearchOptions) (Algorithm, error) {
	all := PaperAlgorithms(opts)
	for _, a := range all {
		if a.Name() == name {
			return a, nil
		}
	}
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = a.Name()
	}
	return nil, fmt.Errorf("core: unknown algorithm %q (want one of %s)", name, strings.Join(names, ", "))
}
