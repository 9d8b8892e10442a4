package core

import "sort"

// This file implements the two greedy heuristics of Section 5:
// G-Order (Algorithm 1, budget-effective greedy) and G-Global (Algorithm 2,
// synchronous greedy).

// bestBillboardFor returns the unassigned billboard maximizing the paper's
// greedy criterion for advertiser i:
//
//	(R(S_i) − R(S_i ∪ {o})) / I({o})
//
// Ties (which always occur under γ=0 while the demand is unreachable, where
// ΔR is 0 for every non-satisfying billboard) are broken by the marginal
// coverage ratio gain(o)/I({o}) and then by the smaller ID, so selection is
// deterministic. Billboards with I({o}) = 0 can never change any influence
// and are skipped. Returns ok=false if no eligible billboard exists.
//
// Under the union-coverage measure on large universes the selection runs
// on the lazy-greedy gain cache (gaincache.go), which returns the
// identical billboard while evaluating far fewer marginal gains; small
// universes keep the full scan (heap upkeep would cost more than it
// saves), and the impression-count measure (k > 1) is not submodular and
// always uses the scan. See usesCELF.
func bestBillboardFor(p *Plan, i int) (best int, ok bool) {
	if usesCELF(p.inst) {
		return bestBillboardCELF(p, i)
	}
	p.stats.Rescans++
	return bestBillboardScan(p, i)
}

// bestBillboardScan is the reference O(|U|·deg) implementation of
// bestBillboardFor: evaluate every unassigned billboard. Under a non-base
// model, billboards the model's CanAssign hook rejects are skipped before
// they count as candidates — the greedy only ever selects feasible moves.
func bestBillboardScan(p *Plan, i int) (best int, ok bool) {
	u := p.inst.Universe()
	curRegret := p.Regret(i)
	curInfl := p.Influence(i)
	checkFeasible := !p.inst.base
	var bestKey1, bestKey2 float64
	var candidates int64
	best = -1
	for b, owner := range p.owner {
		if owner != Unassigned {
			continue
		}
		deg := u.Degree(b)
		if deg == 0 {
			continue
		}
		if checkFeasible && !p.inst.model.CanAssign(p, i, b) {
			continue
		}
		candidates++
		gain := p.GainOf(i, b)
		dR := curRegret - p.inst.Regret(i, curInfl+gain)
		key1 := dR / float64(deg)
		key2 := float64(gain) / float64(deg)
		if best == -1 || key1 > bestKey1 || (key1 == bestKey1 && key2 > bestKey2) {
			best, bestKey1, bestKey2 = b, key1, key2
		}
	}
	p.stats.Misses += candidates
	return best, best != -1
}

// byBudgetEffectiveness returns advertiser indices sorted by descending
// L_i/I_i (ties by smaller index).
func byBudgetEffectiveness(inst *Instance) []int {
	order := make([]int, inst.NumAdvertisers())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		ax, ay := inst.Advertiser(order[x]), inst.Advertiser(order[y])
		return ax.Payment/float64(ax.Demand) > ay.Payment/float64(ay.Demand)
	})
	return order
}

// GreedyOrder is Algorithm 1 (G-Order): advertisers are served one at a
// time in descending budget-effectiveness order; each receives billboards
// that maximize regret reduction per unit influence until satisfied or the
// inventory runs out.
func GreedyOrder(inst *Instance) *Plan {
	p, _ := greedyOrder(nil, inst)
	return p
}

func greedyOrder(done <-chan struct{}, inst *Instance) (p *Plan, completed bool) {
	p = NewPlan(inst)
	for _, i := range byBudgetEffectiveness(inst) {
		for !p.Satisfied(i) {
			if cancelled(done) {
				return p, false
			}
			b, ok := bestBillboardFor(p, i)
			if !ok {
				break
			}
			p.Assign(b, i)
		}
	}
	return p, true
}

// synchronousGreedyDone is Algorithm 2 (G-Global): it assigns one
// regret-effective billboard per round to every unsatisfied advertiser,
// so that no advertiser monopolizes the ideal inventory. When the inventory
// is exhausted while two or more advertisers remain unsatisfied, the least
// budget-effective unsatisfied advertiser releases its billboards back to
// the pool and leaves the active set (its partial assignment is abandoned),
// until fewer than two advertisers remain unsatisfied.
//
// The plan is modified in place (it plays the S^in role of the paper's
// pseudo-code, which is non-empty when this routine is invoked from the
// local search framework). It reports false iff done fired before the
// greedy converged; a nil done never fires.
func synchronousGreedyDone(done <-chan struct{}, p *Plan) (completed bool) {
	inst := p.inst
	active := make([]bool, inst.NumAdvertisers())
	for i := range active {
		active[i] = true
	}
	for {
		assignedAny := false
		exhausted := false
		for i := range active {
			if !active[i] || p.Satisfied(i) {
				continue
			}
			if cancelled(done) {
				return false
			}
			b, ok := bestBillboardFor(p, i)
			if !ok {
				exhausted = true
				continue
			}
			p.Assign(b, i)
			assignedAny = true
		}
		unsat := 0
		for i := range active {
			if active[i] && !p.Satisfied(i) {
				unsat++
			}
		}
		if unsat == 0 {
			return true
		}
		if exhausted && !assignedAny {
			if unsat < 2 {
				return true
			}
			// Release the least budget-effective unsatisfied advertiser
			// and retire it from the active set (Lines 2.9-2.11).
			j := -1
			var jEff float64
			for i := range active {
				if !active[i] || p.Satisfied(i) {
					continue
				}
				a := inst.Advertiser(i)
				eff := a.Payment / float64(a.Demand)
				if j == -1 || eff < jEff {
					j, jEff = i, eff
				}
			}
			p.ReleaseAll(j)
			active[j] = false
		}
	}
}

// GGlobal runs Algorithm 2 from the empty plan, the G-Global method of the
// experiment section.
func GGlobal(inst *Instance) *Plan {
	p := NewPlan(inst)
	synchronousGreedyDone(nil, p)
	return p
}
