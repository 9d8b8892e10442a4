package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// This file implements the parallel restart engine behind
// RandomizedLocalSearch (Algorithm 3). The framework's outer loop is
// embarrassingly parallel: the greedy initialization and every restart
// iteration build their own Plan from scratch, read only the immutable
// Instance/Universe, and draw randomness from a named substream
// (rng.Derive("restart-i")) that depends solely on the seed and the restart
// index — never on execution order. Each worker therefore owns its scratch
// state outright, results land in a slot indexed by iteration, and the
// caller reduces them serially in iteration order, which makes the selected
// plan, its total regret and the aggregated Evals counter bit-identical to
// the serial run for any worker count. Model variants (model.go) need no
// handling here: the seeding, greedy and search helpers each consult the
// instance's Model, and a Model is stateless across plans, so restarts stay
// embarrassingly parallel under every variant.
//
// Cancellation rides the same slot structure: a job interrupted by the
// context leaves its partially improved plan in the partials slot instead of
// the results slot, workers stop pulling new jobs once the context fires,
// and the reduction (anytime.go) consumes only the longest completed prefix
// of results so that truncation is deterministic at restart granularity.

// restartTestHook, when non-nil, is invoked after each job slot completes
// with that slot's index. Tests use it to fire a cancellation at an exact
// point of the restart schedule; production code never sets it.
var restartTestHook func(job int)

// warmOutcome reports what a warm-started slot 0 actually did: whether the
// incumbent validated and seeded the slot, and how many advertisers the
// branch-switch screen froze for its descent. The zero value means slot 0
// ran cold (no WarmStart option, or the incumbent failed validation).
type warmOutcome struct {
	applied bool
	frozen  int
}

// runRestarts executes the greedy initialization (slot 0) and the
// opts.Restarts restart iterations (slots 1..Restarts) of Algorithm 3 on
// min(opts.Workers, iterations) goroutines. results[j] holds slot j's plan
// iff the slot ran to completion; partials[j] holds the abandoned plan of a
// slot interrupted by ctx (always structurally valid, never both set). opts
// must already have defaults applied; Workers < 1 selects
// runtime.GOMAXPROCS(0).
//
// With opts.WarmStart set, slot 0 replays the incumbent (warmstart.go),
// completes it with the greedy and descends with the frozen mask applied;
// slots 1..Restarts are byte-identical to the cold run (their substreams
// depend only on seed and slot index), which keeps the reduction
// deterministic at any worker count. Only slot 0's goroutine writes warm,
// and the caller reads it after all slots finished.
//
// When the greedy selects through CELF heaps (usesCELF), every slot's plan
// shares one incidence index, built by the first heap of any slot; each
// slot drops its reference with the rest of its selection state, so the
// index dies with the solve.
func runRestarts(ctx context.Context, inst *Instance, opts LocalSearchOptions) (results, partials []*Plan, warm warmOutcome) {
	jobs := opts.Restarts + 1
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > jobs {
		workers = jobs
	}
	done := ctxDone(ctx)

	// The root generator is never advanced: Derive only reads its state,
	// so concurrent derivation by the workers is safe and yields the same
	// substreams the serial loop would.
	root := rng.New(opts.Seed)
	var index *sharedIncidence
	if usesCELF(inst) {
		index = &sharedIncidence{}
	}
	results = make([]*Plan, jobs)
	partials = make([]*Plan, jobs)

	// Tracing state. All of it is touched only when a tracer is attached,
	// so the disabled path executes exactly the pre-probe instructions.
	// The incumbent (trBest) is tracked under trMu across workers purely
	// for Improved emission — it never feeds back into the solve, whose
	// result remains the deterministic prefix reduction of anytime.go.
	tr := opts.Tracer
	var t0 time.Time
	var trMu sync.Mutex
	trBest := math.Inf(1)
	if tr != nil {
		t0 = time.Now()
	}

	run := func(job int) {
		if tr != nil {
			tr.RestartStart(job, time.Since(t0))
		}
		p := NewPlan(inst)
		if index != nil {
			p.shareIncidence(index)
		}
		var frozen []bool
		if job == 0 && opts.WarmStart != nil {
			if frozen = applyWarmStart(p, opts.WarmStart); frozen != nil {
				warm = warmOutcome{applied: true, frozen: frozenCount(frozen)}
			}
		} else if job > 0 {
			seedRandomPlan(p, root.Derive(fmt.Sprintf("restart-%d", job-1)))
		}
		completed := synchronousGreedyDone(done, p) && localSearchDone(done, p, opts, frozen)
		p.dropGainCache()
		if !completed {
			partials[job] = p
			return
		}
		results[job] = p
		if tr != nil {
			regret := p.TotalRegret()
			tr.RestartDone(job, regret, p.Evals(), time.Since(t0))
			// Emitting under the lock keeps Improved calls strictly
			// decreasing in regret and non-decreasing in elapsed time
			// even when several slots finish simultaneously.
			trMu.Lock()
			if regret < trBest {
				trBest = regret
				tr.Improved(job, regret, time.Since(t0))
			}
			trMu.Unlock()
		}
		if restartTestHook != nil {
			restartTestHook(job)
		}
	}

	if workers == 1 {
		for job := 0; job < jobs; job++ {
			if cancelled(done) {
				break
			}
			run(job)
		}
		return results, partials, warm
	}

	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if cancelled(done) {
					return
				}
				job := int(next.Add(1))
				if job >= jobs {
					return
				}
				run(job)
			}
		}()
	}
	wg.Wait()
	return results, partials, warm
}
