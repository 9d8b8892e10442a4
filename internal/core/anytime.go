package core

import "context"

// This file implements the anytime contract over the solvers: every
// algorithm can run under a context.Context and, when the context is
// cancelled or its deadline fires mid-solve, still return the best complete
// plan found so far instead of either blocking to completion or returning
// nothing. The serving layer (internal/server) is built on this contract.
//
// Determinism under truncation is defined at restart granularity: a run cut
// off after k completed restart iterations returns the same plan (same
// assignment, same regret, same aggregated Evals counter) as an uncancelled
// run configured with Restarts = k. To make that hold for any worker count,
// the reduction only consumes the longest completed *prefix* of iteration
// slots — a restart that finished out of order ahead of an abandoned earlier
// slot is discarded rather than allowed to make the answer depend on
// scheduling. When the context never fires, every slot completes, the prefix
// is the whole run, and the result is bit-identical to the non-context entry
// points.

// Anytime is the result of a context-aware solve: the best complete plan
// found before the context fired, plus how much of the configured work was
// actually performed.
type Anytime struct {
	// Plan is the best complete plan found. It is always a structurally
	// valid (disjoint, well-formed) plan; if the context fired before even
	// the greedy initialization finished, it is the best partially built
	// plan (cancellation points only occur between atomic plan mutations),
	// or the empty plan as a last resort.
	Plan *Plan
	// TotalRegret is Plan.TotalRegret(), captured for convenience.
	TotalRegret float64
	// RestartsRequested is the configured outer-loop iteration count
	// (0 for the greedy algorithms, which have no restart loop).
	RestartsRequested int
	// RestartsCompleted is the length of the longest completed prefix of
	// restart iterations that entered the reduction. Equal to
	// RestartsRequested when the run was not truncated.
	RestartsCompleted int
	// Truncated reports whether the context fired before the configured
	// work finished. When false, the result is bit-identical to the
	// corresponding non-context solver.
	Truncated bool
	// Evals is the total number of marginal-influence evaluations
	// performed, including work on abandoned restarts that did not enter
	// the reduction. Plan.Evals() carries only the deterministic aggregate
	// of the completed prefix (matching an uncancelled run truncated to
	// RestartsCompleted); Evals is the truthful work measure for metrics.
	Evals int64
	// Cache aggregates the gain-cache effectiveness counters over all
	// work performed (like Evals, including abandoned restarts);
	// Plan.CacheStats() carries the deterministic prefix aggregate.
	Cache CacheStats
	// WarmStarted reports that restart slot 0 was seeded from a validated
	// incumbent (LocalSearchOptions.WarmStart). False when no incumbent
	// was supplied or it failed validation — the run was then fully cold.
	WarmStarted bool
	// FrozenAdvertisers is how many advertisers the branch-switch screen
	// froze during the warm slot's descent (0 for cold runs).
	FrozenAdvertisers int
}

// SolveAnytime runs alg under ctx: Algorithm.SolveCtx as a plain function,
// the form the serving layer takes as its substitutable solve hook.
func SolveAnytime(ctx context.Context, alg Algorithm, inst *Instance) *Anytime {
	return alg.SolveCtx(ctx, inst)
}

// ctxDone extracts the done channel once so the hot paths can poll with a
// single non-blocking channel read. A nil context (or context.Background())
// yields a nil channel, for which cancelled reports false without any work —
// the non-context entry points pay nothing for the cancellation plumbing.
func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// cancelled polls a done channel obtained from ctxDone.
func cancelled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// RandomizedLocalSearchCtx is the anytime form of RandomizedLocalSearch
// (Algorithm 3). Restart iterations completed before ctx fires are reduced
// exactly as in the uncancelled run; the iteration in flight when ctx fires
// is abandoned (its partial plan is used only if nothing completed). With a
// context that never fires the returned plan, regret and eval counter are
// bit-identical to RandomizedLocalSearch for every worker count.
func RandomizedLocalSearchCtx(ctx context.Context, inst *Instance, opts LocalSearchOptions) *Anytime {
	opts = opts.withDefaults()
	results, partials, warm := runRestarts(ctx, inst, opts)

	// Longest completed prefix of slots (slot 0 is the greedy-initialized
	// descent, slots 1..Restarts the restart iterations).
	prefix := 0
	for prefix < len(results) && results[prefix] != nil {
		prefix++
	}

	var extraEvals int64      // work outside the deterministic prefix
	var extraCache CacheStats // ditto, for the selection-engine counters
	for _, p := range results[prefix:] {
		if p != nil {
			extraEvals += p.Evals()
			extraCache = extraCache.Add(p.CacheStats())
		}
	}
	for _, p := range partials {
		if p != nil {
			extraEvals += p.Evals()
			extraCache = extraCache.Add(p.CacheStats())
		}
	}

	if prefix == 0 {
		// Not even the greedy initialization completed. Fall back to the
		// best partially built plan — still structurally valid, because
		// cancellation points sit between atomic plan mutations.
		var best *Plan
		for _, p := range partials {
			if p != nil && (best == nil || p.TotalRegret() < best.TotalRegret()) {
				best = p
			}
		}
		if best == nil {
			best = NewPlan(inst)
		}
		return &Anytime{
			Plan:              best,
			TotalRegret:       best.TotalRegret(),
			RestartsRequested: opts.Restarts,
			Truncated:         true,
			Evals:             extraEvals,
			Cache:             extraCache,
			WarmStarted:       warm.applied,
			FrozenAdvertisers: warm.frozen,
		}
	}

	best := results[0]
	totalEvals := best.Evals()
	totalCache := best.CacheStats()
	for _, cand := range results[1:prefix] {
		totalEvals += cand.Evals()
		totalCache = totalCache.Add(cand.CacheStats())
		if cand.TotalRegret() < best.TotalRegret() {
			best = cand
		}
	}
	best.AddEvals(totalEvals - best.Evals())
	best.stats = totalCache
	return &Anytime{
		Plan:              best,
		TotalRegret:       best.TotalRegret(),
		RestartsRequested: opts.Restarts,
		RestartsCompleted: prefix - 1,
		Truncated:         prefix < len(results),
		Evals:             totalEvals + extraEvals,
		Cache:             totalCache.Add(extraCache),
		WarmStarted:       warm.applied,
		FrozenAdvertisers: warm.frozen,
	}
}
