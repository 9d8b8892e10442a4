// Package simulate models the operational setting that motivates the paper
// (§1): a host "needs to deal with multiple advertisers coming every day."
// Each simulated day a batch of campaign proposals arrives, the host
// allocates its currently free billboards to the day's proposals with a
// chosen MROAM algorithm, contracts occupy their billboards for a number of
// days, and payments are collected when contracts end (full payment if the
// demand was met, the γ-scaled fraction otherwise — the business model of
// Equation 1).
//
// The simulator turns the one-shot MROAM solvers into a rolling policy and
// measures what the host actually cares about over time: collected revenue,
// cumulative regret, and inventory utilization. It is the substrate behind
// examples/dailyops and the policy-comparison bench.
package simulate

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/rng"
)

// Config parameterizes a simulation.
type Config struct {
	// Days is the horizon length. Must be >= 1.
	Days int
	// ArrivalsPerDay is the expected number of proposals per day; the
	// realized count is uniform in [1, 2·ArrivalsPerDay−1]. Must be >= 1.
	ArrivalsPerDay int
	// ContractMinDays/ContractMaxDays bound each contract's duration.
	ContractMinDays, ContractMaxDays int
	// DemandFraction bounds each proposal's demand as a fraction of the
	// host's total supply I*: uniform in [Lo, Hi). Advertisers do not
	// see the host's inventory state, so demands are policy-independent;
	// the realized daily demand-supply pressure emerges from arrivals ×
	// demand against whatever inventory is currently free.
	DemandFractionLo, DemandFractionHi float64
	// PaymentFactor bounds ε in L = ⌊ε·I⌋, as in the paper (§7.1.3);
	// zero values select [0.9, 1.1).
	PaymentFactorLo, PaymentFactorHi float64
	// Gamma is the unsatisfied penalty ratio of Equation 1.
	Gamma float64
	// Seed drives arrivals and proposal noise.
	Seed uint64
	// ZoneOf and ZoneCap optionally impose the zonal regret model on every
	// daily allocation: ZoneOf maps each billboard of the full universe to
	// its zone, and no contract may count more than ZoneCap influence from
	// one zone. Empty ZoneOf (the default) runs the base model. ZoneOf is
	// indexed by the full universe's billboard IDs; Run restricts it to
	// each day's free inventory.
	ZoneOf  []int
	ZoneCap int64
}

func (c Config) withDefaults() Config {
	if c.PaymentFactorLo == 0 && c.PaymentFactorHi == 0 {
		c.PaymentFactorLo, c.PaymentFactorHi = 0.9, 1.1
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Days < 1 {
		return fmt.Errorf("simulate: days %d < 1", c.Days)
	}
	if c.ArrivalsPerDay < 1 {
		return fmt.Errorf("simulate: arrivals/day %d < 1", c.ArrivalsPerDay)
	}
	if c.ContractMinDays < 1 || c.ContractMaxDays < c.ContractMinDays {
		return fmt.Errorf("simulate: contract days [%d, %d] invalid", c.ContractMinDays, c.ContractMaxDays)
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
	if len(c.ZoneOf) > 0 && c.ZoneCap < 1 {
		return fmt.Errorf("simulate: zone partition set but zone cap %d < 1", c.ZoneCap)
	}
	return nil
}

// contract is a running engagement: the billboards (original IDs) it holds
// and the terms agreed on arrival.
type contract struct {
	demand     int64
	payment    float64
	achieved   int // influence delivered by the held billboards
	billboards []int
	endDay     int // exclusive: billboards free again on endDay
}

// DayReport is the outcome of one simulated day.
type DayReport struct {
	Day            int
	Arrived        int
	Satisfied      int     // today's proposals whose demand was met
	DayRegret      float64 // regret of today's allocation (Equation 1)
	RevenueBooked  float64 // payments that will be collected for today's contracts
	FreeBillboards int     // free inventory before today's allocation
	HeldBillboards int     // inventory locked by running contracts
}

// Result aggregates a full simulation.
type Result struct {
	Days []DayReport
	// TotalRevenue is the sum of collected payments over the horizon.
	TotalRevenue float64
	// TotalRegret is the sum of daily allocation regrets.
	TotalRegret float64
	// TotalProposals and TotalSatisfied count proposals over the horizon.
	TotalProposals int
	TotalSatisfied int
}

// Run simulates the rolling market on the universe using the algorithm as
// the daily allocation policy.
func Run(u *coverage.Universe, alg core.Algorithm, cfg Config) (*Result, error) {
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
	r := rng.New(cfg.Seed).Derive("simulate")

	held := make([]bool, u.NumBillboards()) // billboard -> locked by a contract
	var active []contract
	res := &Result{}

	for day := 0; day < cfg.Days; day++ {
		// Expire contracts and collect their payments.
		kept := active[:0]
		for _, ct := range active {
			if ct.endDay <= day {
				res.TotalRevenue += collect(ct, cfg.Gamma)
				for _, b := range ct.billboards {
					held[b] = false
				}
				continue
			}
			kept = append(kept, ct)
		}
		active = kept

		// Free inventory view.
		free := make([]int, 0, u.NumBillboards())
		for b, h := range held {
			if !h {
				free = append(free, b)
			}
		}
		sub, err := u.Subuniverse(free)
		if err != nil {
			return nil, err
		}

		// Today's proposals, scaled to the total supply. All randomness
		// for the day (arrivals, demands, payments, contract duration)
		// is drawn here unconditionally, so the market is identical
		// across allocation policies run with the same seed even when
		// their inventory states diverge.
		arrivals := 1 + r.Intn(2*cfg.ArrivalsPerDay-1)
		totalSupply := float64(u.TotalSupply())
		advs := make([]core.Advertiser, 0, arrivals)
		for k := 0; k < arrivals; k++ {
			demand := int64(r.Range(cfg.DemandFractionLo, cfg.DemandFractionHi) * totalSupply)
			if demand < 1 {
				demand = 1
			}
			payment := float64(int64(r.Range(cfg.PaymentFactorLo, cfg.PaymentFactorHi) * float64(demand)))
			advs = append(advs, core.Advertiser{Demand: demand, Payment: payment})
		}
		duration := cfg.ContractMinDays
		if cfg.ContractMaxDays > cfg.ContractMinDays {
			duration += r.Intn(cfg.ContractMaxDays - cfg.ContractMinDays + 1)
		}

		report := DayReport{
			Day:            day,
			Arrived:        arrivals,
			FreeBillboards: len(free),
			HeldBillboards: u.NumBillboards() - len(free),
		}

		if len(free) > 0 && sub.TotalSupply() > 0 {
			inst, err := core.NewInstance(sub, advs, cfg.Gamma)
			if err != nil {
				return nil, err
			}
			if len(cfg.ZoneOf) > 0 {
				// Restrict the full-universe partition to today's free
				// inventory: sub-billboard i is original billboard free[i].
				zoneSub := make([]int, len(free))
				for i, b := range free {
					zoneSub[i] = cfg.ZoneOf[b]
				}
				zm, err := core.NewZonalModel(zoneSub, cfg.ZoneCap)
				if err != nil {
					return nil, err
				}
				if inst, err = inst.WithModel(zm); err != nil {
					return nil, err
				}
			}
			plan := alg.SolveCtx(context.Background(), inst).Plan
			report.DayRegret = plan.TotalRegret()

			for i := range advs {
				set := plan.Set(i, nil)
				if len(set) == 0 {
					continue // proposal declined: nothing allocated
				}
				ct := contract{
					demand:   advs[i].Demand,
					payment:  advs[i].Payment,
					achieved: plan.Influence(i),
					endDay:   day + duration,
				}
				for _, sb := range set {
					b := free[sb] // map sub-ID back to original ID
					held[b] = true
					ct.billboards = append(ct.billboards, b)
				}
				active = append(active, ct)
				report.RevenueBooked += collect(ct, cfg.Gamma)
				if plan.Satisfied(i) {
					report.Satisfied++
				}
			}
		} else {
			// No inventory: every proposal goes unserved at full regret.
			for i := range advs {
				report.DayRegret += advs[i].Payment
			}
		}

		res.Days = append(res.Days, report)
		res.TotalRegret += report.DayRegret
		res.TotalProposals += arrivals
		res.TotalSatisfied += report.Satisfied
	}

	// Collect payments of contracts still running at the horizon.
	for _, ct := range active {
		res.TotalRevenue += collect(ct, cfg.Gamma)
	}
	return res, nil
}

// collect returns the payment a finished contract yields: full payment when
// satisfied, the γ-scaled achieved fraction otherwise.
func collect(ct contract, gamma float64) float64 {
	if int64(ct.achieved) >= ct.demand {
		return ct.payment
	}
	return gamma * ct.payment * float64(ct.achieved) / float64(ct.demand)
}

// ComparePolicies runs the same market once per algorithm (same seed, so
// identical arrival sequences) and returns the results keyed by algorithm
// name — the host's "which allocator should I run nightly" question.
func ComparePolicies(u *coverage.Universe, algs []core.Algorithm, cfg Config) (map[string]*Result, error) {
	out := make(map[string]*Result, len(algs))
	for _, alg := range algs {
		res, err := Run(u, alg, cfg)
		if err != nil {
			return nil, err
		}
		out[alg.Name()] = res
	}
	return out, nil
}
