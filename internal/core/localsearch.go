package core

import (
	"context"
	"fmt"

	"repro/internal/rng"
)

// This file implements Section 6: the randomized local search framework
// (Algorithm 3) and its two neighborhood strategies, the advertiser-driven
// local search ALS (Algorithm 4) and the billboard-driven local search BLS
// (Algorithm 5).

// SearchKind selects the neighborhood strategy used inside the randomized
// local search framework.
type SearchKind uint8

const (
	// AdvertiserDriven exchanges whole billboard sets between advertiser
	// pairs (ALS, Algorithm 4).
	AdvertiserDriven SearchKind = iota
	// BillboardDriven exchanges, replaces and releases individual
	// billboards (BLS, Algorithm 5).
	BillboardDriven
)

func (k SearchKind) String() string {
	switch k {
	case AdvertiserDriven:
		return "ALS"
	case BillboardDriven:
		return "BLS"
	default:
		return fmt.Sprintf("SearchKind(%d)", uint8(k))
	}
}

// LocalSearchOptions configures the randomized local search framework.
type LocalSearchOptions struct {
	// Search selects ALS or BLS as the neighborhood strategy.
	Search SearchKind
	// Restarts is the preset iteration count of Algorithm 3's outer loop:
	// the number of random baseline plans to generate and improve.
	// Values < 1 are treated as DefaultRestarts.
	Restarts int
	// Seed drives the random baseline plan generation.
	Seed uint64
	// ImprovementRatio is the r of Definition 6.1: a BLS move is only
	// accepted if it reduces the total regret by more than
	// r·max(R(S), 1) (strictly positive progress is enforced even at
	// r = 0 via a tiny absolute epsilon, guaranteeing termination).
	// Ignored by ALS. Values < 0 are treated as 0.
	ImprovementRatio float64
	// MaxPasses bounds the number of full neighborhood sweeps per local
	// search invocation as a safety valve; the search normally stops
	// earlier, when a sweep yields no accepted move. Values < 1 are
	// treated as DefaultMaxPasses.
	MaxPasses int
	// Workers is the number of goroutines the restart loop fans out
	// over. Restarts are fully independent (each derives its own RNG
	// stream), and the reduction is performed in restart order, so the
	// returned plan, its regret and its aggregated Evals counter are
	// bit-identical for every worker count. Values < 1 select
	// runtime.GOMAXPROCS(0).
	Workers int
	// Tracer, when non-nil, receives solver progress events: restart
	// lifecycle and best-regret improvements (trace.go). Tracing is purely observational — the
	// solve result is bit-identical with or without it — and the nil
	// (disabled) path costs nothing. Implementations must be safe for
	// concurrent use when Workers > 1.
	Tracer Tracer
	// WarmStart, when non-nil, seeds restart slot 0 from an incumbent plan
	// instead of the greedy-from-empty descent and freezes the advertisers
	// the branch-switch screen proves unaffected (warmstart.go). Slots
	// 1..Restarts are untouched, so the result is deterministic at any
	// worker count; nil (the default) is bit-identical to the pre-warm
	// engine. Only the randomized local searches consult it — the greedy
	// algorithms have no restart pool.
	WarmStart *WarmStart
}

// Defaults for LocalSearchOptions.
const (
	DefaultRestarts  = 10
	DefaultMaxPasses = 50
	// minImprove is the absolute progress each accepted move must make,
	// guaranteeing termination of the sweep loop even at r = 0.
	minImprove = 1e-9
)

func (o LocalSearchOptions) withDefaults() LocalSearchOptions {
	if o.Restarts < 1 {
		o.Restarts = DefaultRestarts
	}
	if o.MaxPasses < 1 {
		o.MaxPasses = DefaultMaxPasses
	}
	if o.ImprovementRatio < 0 {
		o.ImprovementRatio = 0
	}
	return o
}

// threshold returns the minimum regret reduction an accepted move must
// achieve given the current total regret.
func (o LocalSearchOptions) threshold(current float64) float64 {
	t := o.ImprovementRatio * current
	if t < minImprove {
		t = minImprove
	}
	return t
}

// RandomizedLocalSearch is Algorithm 3. It initializes the incumbent with
// the synchronous greedy, then repeatedly (1) seeds a random baseline plan
// by giving each advertiser one random billboard, (2) completes it with the
// synchronous greedy, (3) improves it with the selected local search, and
// keeps the best plan seen. The returned plan's Evals counter aggregates
// the work of all restarts.
//
// The greedy initialization and the opts.Restarts restart iterations are
// fully independent, so they run on a pool of opts.Workers goroutines
// (parallel.go). The reduction — min total regret with ties broken by the
// earlier restart, evals summed over all iterations — happens serially in
// restart order afterwards, so the result is bit-identical to a serial run
// for every worker count.
//
// RandomizedLocalSearchCtx (anytime.go) is the cancellable, deadline-aware
// form; this entry point is exactly that run under a context that never
// fires.
func RandomizedLocalSearch(inst *Instance, opts LocalSearchOptions) *Plan {
	return RandomizedLocalSearchCtx(context.Background(), inst, opts).Plan
}

// seedRandomPlan assigns one random distinct billboard to every advertiser
// (Lines 3.3-3.7). If there are fewer billboards than advertisers, the
// excess advertisers start empty. The base path is byte-for-byte the
// pre-Model loop (the shuffled pool consumed in order); under a constrained
// model each advertiser takes the first remaining billboard its CanAssign
// hook accepts — still deterministic in the seed.
func seedRandomPlan(p *Plan, r *rng.RNG) {
	pool := p.UnassignedBillboards(nil)
	r.ShuffleInts(pool)
	n := p.inst.NumAdvertisers()
	if p.inst.base {
		for i := 0; i < n && i < len(pool); i++ {
			p.Assign(pool[i], i)
		}
		return
	}
	m := p.inst.model
	next := 0
	for i := 0; i < n && next < len(pool); i++ {
		for j := next; j < len(pool); j++ {
			if m.CanAssign(p, i, pool[j]) {
				pool[next], pool[j] = pool[j], pool[next]
				p.Assign(pool[next], i)
				next++
				break
			}
		}
	}
}

// localSearchDone dispatches to the selected neighborhood strategy,
// improving p in place. It reports false iff done fired before the search
// converged; p is always left structurally valid. A non-nil frozen mask
// (warm slot 0 only) excludes the marked advertisers from every move.
func localSearchDone(done <-chan struct{}, p *Plan, opts LocalSearchOptions, frozen []bool) bool {
	switch opts.Search {
	case AdvertiserDriven:
		_, completed := advertiserLocalSearch(done, p, opts.MaxPasses, frozen)
		return completed
	case BillboardDriven:
		_, completed := billboardLocalSearch(done, p, opts, frozen)
		return completed
	default:
		panic(fmt.Sprintf("core: unknown search kind %d", opts.Search))
	}
}

// advertiserLocalSearch is ALS (Algorithm 4): repeatedly scan all ordered
// advertiser pairs and exchange their whole billboard sets whenever that
// reduces the total regret, until a full sweep makes no exchange (or
// maxPasses sweeps have run). It returns the number of exchanges performed
// and false iff done fired before the search converged; a nil done never
// fires. A non-nil frozen mask excludes the marked advertisers.
//
// Exchanging sets does not change the sets' influences, only which demand
// each influence is matched against, so each candidate exchange is
// evaluated in O(1) from cached influences.
func advertiserLocalSearch(done <-chan struct{}, p *Plan, maxPasses int, frozen []bool) (exchanges int, completed bool) {
	if maxPasses < 1 {
		maxPasses = DefaultMaxPasses
	}
	inst := p.inst
	n := inst.NumAdvertisers()
	checkFeasible := !inst.base
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for i := 0; i < n; i++ {
			if cancelled(done) {
				return exchanges, false
			}
			if frozen != nil && frozen[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if frozen != nil && frozen[j] {
					continue
				}
				ii, ij := p.Influence(i), p.Influence(j)
				cur := p.Regret(i) + p.Regret(j)
				p.AddEvals(1)
				swapped := inst.Regret(i, ij) + inst.Regret(j, ii)
				if swapped < cur-minImprove &&
					(!checkFeasible || inst.model.CanExchangeSets(p, i, j)) {
					p.ExchangeSets(i, j)
					exchanges++
					improved = true
				}
			}
		}
		if !improved {
			return exchanges, true
		}
	}
	return exchanges, true
}

// billboardLocalSearch is BLS (Algorithm 5): a fine-grained neighborhood
// search around the current plan using four moves, applied first-improvement
// until a full sweep accepts nothing (or MaxPasses sweeps have run):
//
//	(1) exchange a billboard of one advertiser with a billboard of another;
//	(2) replace an assigned billboard with an unassigned one;
//	(3) release an assigned billboard;
//	(4) allocate unassigned billboards by re-running the synchronous greedy
//	    and keeping the result if it improves.
//
// A move is accepted only if it reduces total regret by more than the
// improvement threshold derived from opts.ImprovementRatio (Definition
// 6.1's r). It returns the number of accepted moves and false iff done
// fired before the search converged; a nil done never fires. A non-nil
// frozen mask excludes the marked advertisers from every move.
func billboardLocalSearch(done <-chan struct{}, p *Plan, opts LocalSearchOptions, frozen []bool) (accepted int, completed bool) {
	opts = opts.withDefaults()
	inst := p.inst
	n := inst.NumAdvertisers()
	// Scratch buffers reused across every sweep: the member/free lists the
	// moves enumerate (refilled in place, allocation-free after the first
	// pass) and the trial plan of move (4), copied instead of cloned.
	var s blsScratch
	skip := func(i int) bool { return frozen != nil && frozen[i] }

	for pass := 0; pass < opts.MaxPasses; pass++ {
		improved := false

		// Move (1): pairwise billboard exchange between advertisers.
		for i := 0; i < n; i++ {
			if skip(i) {
				continue
			}
			for j := i + 1; j < n; j++ {
				if cancelled(done) {
					return accepted, false
				}
				if skip(j) {
					continue
				}
				if tryExchangeMove(p, i, j, opts, &s, done) {
					accepted++
					improved = true
				}
			}
		}
		// Move (2): replace an assigned billboard with an unassigned one.
		for i := 0; i < n; i++ {
			if cancelled(done) {
				return accepted, false
			}
			if skip(i) {
				continue
			}
			if tryReplaceMove(p, i, opts, &s, done) {
				accepted++
				improved = true
			}
		}
		// Move (3): release an assigned billboard.
		for i := 0; i < n; i++ {
			if cancelled(done) {
				return accepted, false
			}
			if skip(i) {
				continue
			}
			if tryReleaseMove(p, i, opts, &s) {
				accepted++
				improved = true
			}
		}
		// Move (4): allocate unassigned billboards via the synchronous
		// greedy; keep only if it improves (Lines 5.11-5.13). Frozen
		// advertisers need no gate here: they are satisfied by
		// construction (warmstart.go) and the greedy only assigns to and
		// releases unsatisfied advertisers, so the trial cannot perturb
		// them.
		before := p.TotalRegret()
		if s.trial == nil {
			s.trial = p.Clone()
		} else {
			s.trial.CopyFrom(p)
		}
		greedyOK := synchronousGreedyDone(done, s.trial)
		// The trial starts as a copy of p, so adopting its counters
		// wholesale credits p with exactly the greedy's extra work —
		// mirrored for the selection-effectiveness counters below.
		p.AddEvals(s.trial.Evals() - p.Evals())
		p.stats = s.trial.stats
		if !greedyOK {
			// The trial is a half-finished greedy; discard it rather than
			// let cancellation timing leak into the plan.
			return accepted, false
		}
		if s.trial.TotalRegret() < before-opts.threshold(before) {
			p.CopyFrom(s.trial)
			accepted++
			improved = true
		}

		if !improved {
			return accepted, true
		}
	}
	return accepted, true
}

// blsScratch holds the buffers one billboardLocalSearch invocation reuses
// across sweeps: candidate lists for the three point moves and the greedy
// trial plan of move (4).
type blsScratch struct {
	si, sj []int
	free   []int
	trial  *Plan
}

// tryExchangeMove searches S_i × S_j for one accepted billboard exchange
// (first improvement) and applies it. Reports whether a move was accepted;
// a cancellation mid-scan simply abandons the scan (the caller re-checks
// done and unwinds).
func tryExchangeMove(p *Plan, i, j int, opts LocalSearchOptions, s *blsScratch, done <-chan struct{}) bool {
	inst := p.inst
	checkFeasible := !inst.base
	s.si = p.Set(i, s.si[:0])
	s.sj = p.Set(j, s.sj[:0])
	for _, bm := range s.si {
		if cancelled(done) {
			return false
		}
		for _, bn := range s.sj {
			cur := p.Regret(i) + p.Regret(j)
			di := p.SwapDeltaOf(i, bm, bn)
			dj := p.SwapDeltaOf(j, bn, bm)
			next := inst.Regret(i, p.Influence(i)+di) + inst.Regret(j, p.Influence(j)+dj)
			if next < cur-opts.threshold(p.TotalRegret()) {
				if checkFeasible && (!inst.model.CanSwap(p, i, bm, bn) || !inst.model.CanSwap(p, j, bn, bm)) {
					continue
				}
				p.ExchangeBillboards(bm, bn)
				return true
			}
		}
	}
	return false
}

// tryReplaceMove searches S_i × unassigned for one accepted replacement and
// applies it. Reports whether a move was accepted.
func tryReplaceMove(p *Plan, i int, opts LocalSearchOptions, s *blsScratch, done <-chan struct{}) bool {
	inst := p.inst
	checkFeasible := !inst.base
	s.si = p.Set(i, s.si[:0])
	s.free = p.UnassignedBillboards(s.free[:0])
	for _, bm := range s.si {
		if cancelled(done) {
			return false
		}
		for _, bn := range s.free {
			cur := p.Regret(i)
			di := p.SwapDeltaOf(i, bm, bn)
			next := inst.Regret(i, p.Influence(i)+di)
			if next < cur-opts.threshold(p.TotalRegret()) {
				if checkFeasible && !inst.model.CanSwap(p, i, bm, bn) {
					continue
				}
				p.Replace(bm, bn)
				return true
			}
		}
	}
	return false
}

// tryReleaseMove searches S_i for one accepted release and applies it.
// Reports whether a move was accepted.
func tryReleaseMove(p *Plan, i int, opts LocalSearchOptions, s *blsScratch) bool {
	inst := p.inst
	s.si = p.Set(i, s.si[:0])
	for _, bm := range s.si {
		cur := p.Regret(i)
		loss := p.LossOf(i, bm)
		next := inst.Regret(i, p.Influence(i)-loss)
		if next < cur-opts.threshold(p.TotalRegret()) {
			p.Release(bm)
			return true
		}
	}
	return false
}
