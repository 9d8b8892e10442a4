package simulate

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/rng"
)

// This file implements the churn replay: the delta-solve counterpart of the
// rolling-market simulator. Instead of fresh proposals competing for free
// inventory, one market lives on a fixed universe and mutates day over day —
// an advertiser leaves, another revises its demand, a new one arrives — and
// each day the replay solves the mutated market twice: cold (from scratch,
// what a host without the delta-solve path pays) and warm (seeded from the
// previous day's plan through core.WarmStart, what the daemon's PATCH +
// "warm_start": true path pays). The gap between the two eval counts is the
// operational case for incremental MROAM (DESIGN.md §16).

// ChurnConfig parameterizes a churn replay.
type ChurnConfig struct {
	// Days is the number of churn days after the seed solve. Must be >= 1.
	Days int
	// Advertisers is the seed market size. Must be >= 3 so the daily
	// remove+revise+add mix always has distinct targets.
	Advertisers int
	// DemandFraction bounds each advertiser's demand as a fraction of the
	// universe's total supply: uniform in [Lo, Hi).
	DemandFractionLo, DemandFractionHi float64
	// PaymentFactor bounds ε in L = ⌊ε·I⌋; zero values select [0.9, 1.1).
	PaymentFactorLo, PaymentFactorHi float64
	// Gamma is the unsatisfied penalty ratio of Equation 1.
	Gamma float64
	// Seed drives the seed market, the daily churn ops, and the solver.
	Seed uint64
	// Restarts is the local search restart count; 0 selects
	// core.DefaultRestarts. Cold and warm solves use the same count, so
	// their eval totals are directly comparable.
	Restarts int
	// ZoneOf and ZoneCap optionally impose the zonal regret model, as in
	// Config.
	ZoneOf  []int
	ZoneCap int64
}

func (c ChurnConfig) withDefaults() ChurnConfig {
	if c.PaymentFactorLo == 0 && c.PaymentFactorHi == 0 {
		c.PaymentFactorLo, c.PaymentFactorHi = 0.9, 1.1
	}
	if c.Restarts == 0 {
		c.Restarts = core.DefaultRestarts
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c ChurnConfig) Validate() error {
	c = c.withDefaults()
	if c.Days < 1 {
		return fmt.Errorf("simulate: churn days %d < 1", c.Days)
	}
	if c.Advertisers < 3 {
		return fmt.Errorf("simulate: churn market of %d advertisers < 3", c.Advertisers)
	}
	if c.DemandFractionLo <= 0 || c.DemandFractionHi < c.DemandFractionLo || c.DemandFractionHi > 1 {
		return fmt.Errorf("simulate: demand fraction [%v, %v) invalid", c.DemandFractionLo, c.DemandFractionHi)
	}
	if c.PaymentFactorLo <= 0 || c.PaymentFactorHi < c.PaymentFactorLo {
		return fmt.Errorf("simulate: payment factor [%v, %v) invalid", c.PaymentFactorLo, c.PaymentFactorHi)
	}
	if c.Gamma < 0 || c.Gamma > 1 {
		return fmt.Errorf("simulate: gamma %v outside [0, 1]", c.Gamma)
	}
	if c.Restarts < 0 {
		return fmt.Errorf("simulate: restarts %d < 0", c.Restarts)
	}
	if len(c.ZoneOf) > 0 && c.ZoneCap < 1 {
		return fmt.Errorf("simulate: zone partition set but zone cap %d < 1", c.ZoneCap)
	}
	return nil
}

// ChurnDay is the outcome of one churn day: the mutation applied and the
// cold-vs-warm cost of re-solving the mutated market.
type ChurnDay struct {
	Day         int
	Advertisers int // market size after the day's ops
	// Removed/Revised/Added count the day's ops by kind.
	Removed, Revised, Added int
	// Cold* measures the from-scratch solve of the day's market; Warm* the
	// solve seeded from the previous day's plan.
	ColdRegret, WarmRegret float64
	ColdEvals, WarmEvals   int64
	ColdMillis, WarmMillis float64
	// WarmStarted reports that the incumbent validated against the mutated
	// market and actually seeded the warm solve.
	WarmStarted bool
	// Frozen is how many advertisers the warm slot's screen excluded from
	// search.
	Frozen int
}

// RegretDelta is the day's paired warm − cold total regret: positive when
// the warm-started solve ended worse than the cold one.
func (d ChurnDay) RegretDelta() float64 { return d.WarmRegret - d.ColdRegret }

// ChurnResult aggregates a churn replay.
type ChurnResult struct {
	Days []ChurnDay
	// SeedRegret/SeedEvals describe the initial cold solve that produced
	// the first incumbent (not counted in the totals below).
	SeedRegret float64
	SeedEvals  int64
	// Totals over the churn days.
	ColdEvals, WarmEvals   int64
	ColdMillis, WarmMillis float64
	// WorseDays/EqualDays/BetterDays count the days whose warm regret was
	// above, equal to or below the cold regret of the same market; they sum
	// to len(Days).
	WorseDays, EqualDays, BetterDays int
	// MaxWorsening is the largest per-day RegretDelta (0 when warm was
	// never worse); RegretDelta is the sum of every day's RegretDelta.
	MaxWorsening, RegretDelta float64
}

// ChurnReplay runs a day-over-day churn market on the universe, solving each
// mutated market cold and warm with the same BLS configuration, and carrying
// the warm plan forward as the next day's incumbent. All randomness comes
// from substreams of cfg.Seed, so two replays with the same inputs report
// identical regrets and eval counts (wall-clock excepted).
func ChurnReplay(u *coverage.Universe, cfg ChurnConfig) (*ChurnResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if u.TotalSupply() == 0 {
		return nil, fmt.Errorf("simulate: universe has zero supply")
	}
	if len(cfg.ZoneOf) > 0 && len(cfg.ZoneOf) != u.NumBillboards() {
		return nil, fmt.Errorf("simulate: zone partition covers %d billboards, universe has %d",
			len(cfg.ZoneOf), u.NumBillboards())
	}

	r := rng.New(cfg.Seed).Derive("churn")
	totalSupply := float64(u.TotalSupply())
	draw := func() core.Advertiser {
		demand := int64(r.Range(cfg.DemandFractionLo, cfg.DemandFractionHi) * totalSupply)
		if demand < 1 {
			demand = 1
		}
		payment := float64(int64(r.Range(cfg.PaymentFactorLo, cfg.PaymentFactorHi) * float64(demand)))
		if payment < 1 {
			payment = 1
		}
		return core.Advertiser{Demand: demand, Payment: payment}
	}
	build := func(advs []core.Advertiser) (*core.Instance, error) {
		inst, err := core.NewInstance(u, advs, cfg.Gamma)
		if err != nil {
			return nil, err
		}
		if len(cfg.ZoneOf) > 0 {
			zm, err := core.NewZonalModel(cfg.ZoneOf, cfg.ZoneCap)
			if err != nil {
				return nil, err
			}
			if inst, err = inst.WithModel(zm); err != nil {
				return nil, err
			}
		}
		return inst, nil
	}
	coldAlg, err := core.AlgorithmByNameOpts("BLS", core.LocalSearchOptions{Seed: cfg.Seed, Restarts: cfg.Restarts})
	if err != nil {
		return nil, err
	}

	advs := make([]core.Advertiser, cfg.Advertisers)
	for i := range advs {
		advs[i] = draw()
	}
	inst, err := build(advs)
	if err != nil {
		return nil, err
	}
	seed := core.SolveAnytime(context.Background(), coldAlg, inst)
	res := &ChurnResult{SeedRegret: seed.TotalRegret, SeedEvals: seed.Evals}
	sets := planSets(seed.Plan, len(advs))

	for day := 0; day < cfg.Days; day++ {
		dirty := make([]bool, len(advs))
		freed := false

		// The day's churn mix: one departure, one revision, one arrival —
		// market size stays constant while roughly a third of the demand
		// book turns over. The removal frees supply, so the warm screen
		// must keep under-satisfied advertisers unfrozen (DESIGN.md §16).
		ri := r.Intn(len(advs))
		advs = append(advs[:ri], advs[ri+1:]...)
		sets = append(sets[:ri], sets[ri+1:]...)
		dirty = append(dirty[:ri], dirty[ri+1:]...)
		freed = true

		vi := r.Intn(len(advs))
		revised := draw()
		advs[vi].Demand = revised.Demand
		dirty[vi] = true

		advs = append(advs, draw())
		sets = append(sets, nil)
		dirty = append(dirty, true)

		inst, err := build(advs)
		if err != nil {
			return nil, err
		}

		warmAlg, err := core.AlgorithmByNameOpts("BLS", core.LocalSearchOptions{
			Seed:     cfg.Seed,
			Restarts: cfg.Restarts,
			WarmStart: &core.WarmStart{
				Sets:        sets,
				Dirty:       dirty,
				FreedSupply: freed,
			},
		})
		if err != nil {
			return nil, err
		}
		warmStart := time.Now()
		warm := core.SolveAnytime(context.Background(), warmAlg, inst)
		warmMillis := float64(time.Since(warmStart).Microseconds()) / 1e3

		coldStart := time.Now()
		cold := core.SolveAnytime(context.Background(), coldAlg, inst)
		coldMillis := float64(time.Since(coldStart).Microseconds()) / 1e3

		d := ChurnDay{
			Day:         day + 1,
			Advertisers: len(advs),
			Removed:     1,
			Revised:     1,
			Added:       1,
			ColdRegret:  cold.TotalRegret,
			WarmRegret:  warm.TotalRegret,
			ColdEvals:   cold.Evals,
			WarmEvals:   warm.Evals,
			ColdMillis:  coldMillis,
			WarmMillis:  warmMillis,
			WarmStarted: warm.WarmStarted,
			Frozen:      warm.FrozenAdvertisers,
		}
		res.Days = append(res.Days, d)
		res.ColdEvals += d.ColdEvals
		res.WarmEvals += d.WarmEvals
		res.ColdMillis += d.ColdMillis
		res.WarmMillis += d.WarmMillis
		delta := d.RegretDelta()
		res.RegretDelta += delta
		switch {
		case delta > 0:
			res.WorseDays++
			res.MaxWorsening = max(res.MaxWorsening, delta)
		case delta < 0:
			res.BetterDays++
		default:
			res.EqualDays++
		}

		// The warm plan becomes tomorrow's incumbent — the same
		// carry-forward the daemon's incumbent store performs.
		sets = planSets(warm.Plan, len(advs))
	}
	return res, nil
}

// planSets extracts the per-advertiser billboard sets of a plan as fresh
// slices, the form core.WarmStart consumes.
func planSets(p *core.Plan, n int) [][]int {
	out := make([][]int, n)
	for i := range out {
		out[i] = p.Set(i, nil)
	}
	return out
}
