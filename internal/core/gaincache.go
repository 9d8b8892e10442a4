package core

import (
	"sync"

	"repro/internal/coverage"
)

// This file implements the lazy-greedy (CELF-style) gain cache behind
// bestBillboardFor. Under the union-coverage influence measure the marginal
// gain I(S_i ∪ {b}) − I(S_i) is submodular: it can only shrink as S_i grows.
// A per-advertiser max-heap of stale gain-ratio upper bounds therefore lets
// the greedy re-evaluate only a handful of heap tops per selection instead
// of rescanning every unassigned billboard.
//
// The greedy's primary selection key is not the gain itself but
// key1 = (R(S_i) − R(S_i ∪ {b})) / I({b}), which is *not* submodular (a
// billboard that crosses the demand threshold can see its key1 jump up as
// S_i approaches the demand). The heap is therefore ordered by the
// submodular quantity r̂(b) ≥ gain(b)/deg(b), and selection prunes with a
// provable per-call bound. Writing x = I(S_i), d = I_i, t = d − x > 0,
// g = gain(b), deg = I({b}), Equation 1 gives
//
//	g <  t:  key1 = (L·γ/d)·(g/deg)            ≤ (L·γ/d)·r̂
//	g >= t:  key1 ≤ R(S_i)/deg ≤ R(S_i)·r̂/t    (since r̂ ≥ g/deg ≥ t/deg)
//
// so with C = max(L·γ/d, R(S_i)/t) every unassigned billboard satisfies
// key1 ≤ C·r̂ and key2 = g/deg ≤ r̂. Popping while the top's C·r̂ can still
// match the best evaluated key therefore yields exactly the same selection
// (including the key2 and smaller-ID tie-breaks) as the full scan.
//
// Each evaluation the heap asks for is exact and O(1): next to its heap an
// advertiser keeps the vector gain[b] = I(S_i ∪ {b}) − I(S_i) over every
// billboard, read in place of a Counter.Gain walk over b's coverage list.
// While the heap lives S_i only grows, and Assign(b, i) updates the vector
// from the IDs b newly covers: each such ID t takes its weight off the gain
// of every billboard covering t, found through an ID→billboards incidence
// index (coverage.Incidence) built by the first heap that needs it and
// shared by the plan's clones and by every restart slot of one solve. The
// work
// a CELF evaluation used to spend walking deg(b) list entries therefore
// moves into those Assign-time updates, which touch each (ID, billboard)
// incidence at most once per heap lifetime. Evals still counts one
// evaluation per popped candidate, so selections, Evals and CacheStats are
// those of the list-walking engine.
//
// Validity is maintained by the Plan mutation hooks: assigning billboards
// only shrinks gains (bounds stay upper bounds; the vector is updated),
// releasing a billboard of advertiser i invalidates i's heap and vector
// (gains of i may grow) and re-inserts the freed billboard into the other
// advertisers' heaps, whose vectors already hold its exact gain, and
// whole-set operations (ExchangeSets, CopyFrom) invalidate the affected
// heaps. The vector lives and dies with its heap, so no other rule is
// needed. The cache is only used under the union-coverage measure
// (impression threshold k = 1) and the base regret model; for k > 1 gains
// are not submodular, and constrained models (model.go) filter candidates
// by feasibility, so both cases make bestBillboardFor fall back to the
// full scan.

// CacheStats counts the effectiveness of the greedy's billboard selection
// engine for one plan. A "candidate" is an unassigned billboard with
// non-zero degree — exactly the set the reference full scan evaluates per
// selection call — so, because the cache provably makes the same
// selections, Hits+Misses over a CELF-mode run equals Misses over the
// corresponding scan-mode run (see TestGainCacheStatsMatchRecount).
type CacheStats struct {
	// Hits counts candidate evaluations the CELF pruning bound avoided:
	// per selection call, the eligible candidates left unevaluated.
	Hits int64
	// Misses counts candidates whose marginal gain was exactly evaluated,
	// whether off the heap (CELF) or by the full scan.
	Misses int64
	// Rescans counts bestBillboardFor calls that fell back to the full
	// scan (small universe in auto mode, or the non-submodular k > 1
	// impression measure).
	Rescans int64
}

// Add returns the field-wise sum s + o.
func (s CacheStats) Add(o CacheStats) CacheStats {
	return CacheStats{
		Hits:    s.Hits + o.Hits,
		Misses:  s.Misses + o.Misses,
		Rescans: s.Rescans + o.Rescans,
	}
}

// Sub returns the field-wise difference s − o.
func (s CacheStats) Sub(o CacheStats) CacheStats {
	return CacheStats{
		Hits:    s.Hits - o.Hits,
		Misses:  s.Misses - o.Misses,
		Rescans: s.Rescans - o.Rescans,
	}
}

// celfSlack is the relative margin added to the pruning bound so that
// floating-point rounding in C·r̂ can never prune a candidate whose exactly
// evaluated key ties the incumbent. Popping a few extra entries only costs
// evaluations; pruning one too many could change the selected billboard.
const celfSlack = 1e-9

// gainEntry is one heap element: a billboard and a stale upper bound on its
// gain(b)/deg(b) ratio for the owning advertiser's current set.
type gainEntry struct {
	b     int
	ratio float64
}

// advGainCache is the lazy-greedy state of one advertiser: a max-heap of
// gainEntry ordered by (ratio desc, b asc), a membership bitmap so
// released billboards are re-inserted at most once, and the exact gain
// vector the heap's evaluations read.
type advGainCache struct {
	heap   []gainEntry
	inHeap []bool
	// gain[b] = I(S_i ∪ {b}) − I(S_i) for every billboard b ∉ S_i (and 0
	// for members). gainCacheOnAssign keeps it exact while the heap lives.
	gain []int
}

// less reports whether entry x has strictly higher heap priority than y.
func (gainEntry) less(x, y gainEntry) bool {
	if x.ratio != y.ratio {
		return x.ratio > y.ratio
	}
	return x.b < y.b
}

// push inserts e into the heap, moving the hole up instead of swapping.
func (c *advGainCache) push(e gainEntry) {
	c.heap = append(c.heap, e)
	h := c.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(e, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// pop removes and returns the maximum entry. The heap must be non-empty.
// It sifts bottom-up (Floyd): the hole left at the root descends along the
// higher-priority child to a leaf at one comparison per level, and the
// former last entry, usually of low priority, then rises from there,
// typically by less than a level. Priorities are a strict total order
// (ratio ties break by ID), so every heap discipline pops the same
// sequence.
func (c *advGainCache) pop() gainEntry {
	h := c.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	c.heap = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && top.less(h[r], h[l]) {
			l = r
		}
		h[i] = h[l]
		i = l
	}
	for i > 0 {
		parent := (i - 1) / 2
		if !top.less(last, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = last
	return top
}

// gainCache holds the lazily built per-advertiser heaps of one Plan, the
// plan's ID→billboards index (index, once taken from shared), and a
// scratch buffer for re-inserting entries evaluated during one selection.
type gainCache struct {
	adv     []*advGainCache
	shared  *sharedIncidence
	index   *coverage.Incidence
	scratch []gainEntry
}

// sharedIncidence builds a universe's incidence index when the first heap
// of any plan holding it asks, and hands every later caller the same
// immutable index. A plan shares one with its clones, and the restart pool
// shares one across all slots of a solve; building on first use (not up
// front) keeps the cost inside the first slot's greedy, where a deadline
// finds it in the same place as before.
type sharedIncidence struct {
	once  sync.Once
	index *coverage.Incidence
}

func (s *sharedIncidence) get(u *coverage.Universe) *coverage.Incidence {
	s.once.Do(func() { s.index = u.Incidence() })
	return s.index
}

// gainCacheFor returns advertiser i's heap, building it from the plan's
// current unassigned pool on first use (or after an invalidation). All
// initial ratios are Degree(b)/Degree(b) = 1, so appending billboards in
// ascending ID order already satisfies the heap invariant. The gain vector
// starts at Degree(b) = I({b}); every ID S_i already covers then takes its
// weight off each billboard covering it, which costs the index rows of
// S_i's coverage rather than a Counter.Gain walk per billboard.
func (p *Plan) gainCacheFor(i int) *advGainCache {
	if p.cache == nil {
		p.shareIncidence(&sharedIncidence{})
	}
	g := p.cache
	if c := g.adv[i]; c != nil {
		return c
	}
	u := p.inst.Universe()
	if g.index == nil {
		g.index = g.shared.get(u)
	}
	c := &advGainCache{inHeap: make([]bool, len(p.owner)), gain: make([]int, len(p.owner))}
	for b, owner := range p.owner {
		deg := u.Degree(b)
		c.gain[b] = deg
		if owner == Unassigned && deg > 0 {
			c.heap = append(c.heap, gainEntry{b: b, ratio: 1})
			c.inHeap[b] = true
		}
	}
	if ctr := p.counters[i]; ctr.Size() > 0 {
		for t := int32(0); int(t) < u.NumIDs(); t++ {
			if ctr.Count(t) > 0 {
				g.discount(c.gain, u, t)
			}
		}
	}
	g.adv[i] = c
	return c
}

// discount removes coverage ID t, newly covered by the set gain describes,
// from the gain of every billboard covering it.
func (g *gainCache) discount(gain []int, u *coverage.Universe, t int32) {
	w := u.Weight(t)
	for _, o := range g.index.Billboards(t) {
		gain[o] -= w
	}
}

// shareIncidence starts the plan's selection state on the given shared
// incidence index, so its heaps use the index of whoever shares it rather
// than building their own.
func (p *Plan) shareIncidence(s *sharedIncidence) {
	p.cache = &gainCache{adv: make([]*advGainCache, len(p.counters)), shared: s}
}

// gainCacheOnAssign keeps advertiser i's gain vector exact after b joined
// S_i: only the IDs b newly covers (count 0→1) change any gain. Assigning
// never invalidates a heap — gains only shrink, so its ratios stay upper
// bounds.
func (p *Plan) gainCacheOnAssign(b, i int) {
	if p.cache == nil || p.cache.adv[i] == nil {
		return
	}
	u := p.inst.Universe()
	ctr, gain := p.counters[i], p.cache.adv[i].gain
	for _, t := range u.List(b) {
		if ctr.Count(t) == 1 {
			p.cache.discount(gain, u, t)
		}
	}
}

// invalidateGainCache drops advertiser i's heap and gain vector. It is
// called whenever S_i shrinks (gains may grow, so the cached upper bounds
// would become invalid) or is replaced wholesale.
func (p *Plan) invalidateGainCache(i int) {
	if p.cache != nil {
		p.cache.adv[i] = nil
	}
}

// invalidateAllGainCaches drops every heap (used by CopyFrom).
func (p *Plan) invalidateAllGainCaches() {
	if p.cache == nil {
		return
	}
	for i := range p.cache.adv {
		p.cache.adv[i] = nil
	}
}

// dropGainCache frees the plan's whole selection state — heaps, gain
// vectors and the index — once a solve hands the plan out: parked restart
// slots and cached results then hold only their assignment. Selections
// made on the plan afterwards rebuild the state on demand.
func (p *Plan) dropGainCache() { p.cache = nil }

// gainCacheOnRelease records that billboard b returned to the unassigned
// pool: it is re-inserted (with the trivially valid bound ratio 1) into
// every built heap it had been popped from. The releasing advertiser's own
// heap must already have been invalidated by the caller.
func (p *Plan) gainCacheOnRelease(b int) {
	if p.cache == nil || p.inst.Universe().Degree(b) == 0 {
		return
	}
	for _, c := range p.cache.adv {
		if c == nil || c.inHeap[b] {
			continue
		}
		c.push(gainEntry{b: b, ratio: 1})
		c.inHeap[b] = true
	}
}

// celfModeKind selects the greedy's selection engine. The default,
// celfAuto, routes through the gain cache only where it is measured to pay
// off; tests force either path to cross-check them against each other. The
// mode is never written concurrently with a running solver.
type celfModeKind int

const (
	celfAuto celfModeKind = iota
	celfForceOn
	celfForceOff
)

var celfMode = celfAuto

// celfMinBillboards is the auto-mode activation threshold. With exact
// evaluations read off the gain vectors, what a CELF solve pays beyond the
// scan is fixed upkeep: the plan's incidence index, one vector build per
// heap and the Assign-time vector updates. Measured on corridor-compressed
// NYC universes (G-Order and G-Global at α = 1, p = 5% and α = 0.1,
// p = 0.5%, best of 7 at GOMAXPROCS=1), the cache costs 1.5–1.8× the scan
// at 100 billboards, 0.5–1.2× at 200, 0.1–0.95× at 400 and 0.08–0.25× at
// the paper's 1462, so the crossover lies between 200 and 400 billboards.
// The threshold stays at 400: it selects the path, and the eval counts the
// benchmark expectations and golden files record depend on the path.
const celfMinBillboards = 400

// usesCELF reports whether bestBillboardFor should route through the
// gain cache for the plans of inst. The impression-threshold check is a
// correctness requirement — k > 1 gains are not submodular — and applies
// in every mode, as does the base-model check: a constrained model can
// declare heap tops infeasible, and popping them would permanently lose
// their entries (the heap only re-inserts on release), so non-base models
// always take the full scan with its per-candidate CanAssign filter. The
// size threshold is a performance heuristic and only applies in celfAuto.
func usesCELF(inst *Instance) bool {
	if inst.Impressions() != 1 || !inst.base {
		return false
	}
	switch celfMode {
	case celfForceOn:
		return true
	case celfForceOff:
		return false
	}
	return inst.Universe().NumBillboards() >= celfMinBillboards
}

// bestBillboardCELF is the lazy-greedy implementation of bestBillboardFor:
// identical selection, evaluating only as many candidates as the pruning
// bound requires.
func bestBillboardCELF(p *Plan, i int) (best int, ok bool) {
	u := p.inst.Universe()
	c := p.gainCacheFor(i)
	curRegret := p.Regret(i)
	curInfl := p.Influence(i)

	// C such that key1(b) ≤ C·r̂(b) for every unassigned b — the model's
	// admissibility contract (Model.MarginalUpperBound). For BaseModel the
	// bound is max(L·γ/d, R(S_i)/t) while unsatisfied and 0 once satisfied;
	// TestModelMarginalUpperBound property-checks admissibility for every
	// shipped model.
	cBound := p.inst.model.MarginalUpperBound(p.inst, i, curInfl, curRegret)

	best = -1
	var bestKey1, bestKey2 float64
	evaluated := p.cache.scratch[:0]
	for len(c.heap) > 0 {
		top := c.heap[0]
		if best != -1 {
			ub := cBound * top.ratio
			// Prune only when even the inflated bound cannot reach the
			// incumbent's key1; ties on key1 must keep popping for the
			// key2/ID tie-breaks.
			if ub+celfSlack*(abs(ub)+abs(bestKey1)) < bestKey1 {
				break
			}
			// Exact-zero regime (γ=0 below the demand, or L=0): every
			// key1 is exactly 0, so selection degenerates to the pure
			// coverage ratio key2 — which the heap bounds directly and
			// exactly (r̂ ≥ g/deg holds in float arithmetic: division
			// rounding is monotone). Remaining entries can then neither
			// beat bestKey2 nor tie it, so pruning is exact.
			if cBound == 0 && bestKey1 == 0 && top.ratio < bestKey2 {
				break
			}
		}
		c.pop()
		c.inHeap[top.b] = false
		if p.owner[top.b] != Unassigned {
			continue
		}
		deg := u.Degree(top.b)
		// One exact evaluation, read off the maintained vector.
		p.evals++
		gain := c.gain[top.b]
		dR := curRegret - p.inst.Regret(i, curInfl+gain)
		key1 := dR / float64(deg)
		key2 := float64(gain) / float64(deg)
		evaluated = append(evaluated, gainEntry{b: top.b, ratio: key2})
		if best == -1 || key1 > bestKey1 ||
			(key1 == bestKey1 && key2 > bestKey2) ||
			(key1 == bestKey1 && key2 == bestKey2 && top.b < best) {
			best, bestKey1, bestKey2 = top.b, key1, key2
		}
	}
	// Every eligible candidate was either exactly evaluated above or had
	// its evaluation pruned by the bound.
	p.stats.Misses += int64(len(evaluated))
	p.stats.Hits += int64(p.eligible - len(evaluated))
	// Entries evaluated this call go back with their refreshed (exact)
	// ratios, staying valid upper bounds for every later call.
	for _, e := range evaluated {
		c.push(e)
		c.inHeap[e.b] = true
	}
	p.cache.scratch = evaluated[:0]
	return best, best != -1
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
