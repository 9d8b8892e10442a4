package experiment

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/rng"
)

// The approximation-gap study measures how far each heuristic lands from
// the true optimum on instances small enough for the exact solver — an
// empirical companion to §4's result that no polynomial algorithm can
// guarantee any constant factor, and to §6.3's dual-objective guarantee
// for BLS. It is not in the paper's evaluation (their instances are far
// beyond exact solvability) but is the natural ground-truth check a
// reproduction can add.

// GapRow summarizes one algorithm's empirical optimality gap.
type GapRow struct {
	Algorithm string
	// MeanRatio is mean over instances of (1+R_alg)/(1+R_opt); the +1
	// smoothing keeps zero-optimum instances meaningful.
	MeanRatio float64
	// WorstRatio is the maximum such ratio observed.
	WorstRatio float64
	// OptimalHits counts instances where the heuristic matched the
	// optimum exactly (within 1e-9).
	OptimalHits int
	// Instances is the number of instances evaluated.
	Instances int
}

// GapConfig tunes the study.
type GapConfig struct {
	// Instances is the number of random small instances; values < 1
	// select 20.
	Instances int
	// Billboards per instance (must stay exact-solvable); values < 1
	// select 8.
	Billboards int
	// Advertisers per instance; values < 1 select 2.
	Advertisers int
	// Seed drives instance generation.
	Seed uint64
	// Restarts configures the local searches; values < 1 select 3.
	Restarts int
}

func (c GapConfig) withDefaults() GapConfig {
	if c.Instances < 1 {
		c.Instances = 20
	}
	if c.Billboards < 1 {
		c.Billboards = 8
	}
	if c.Advertisers < 1 {
		c.Advertisers = 2
	}
	if c.Restarts < 1 {
		c.Restarts = 3
	}
	return c
}

// ApproximationGap runs the four methods against the exact optimum on
// random small instances and aggregates their gaps.
func ApproximationGap(cfg GapConfig) ([]GapRow, error) {
	cfg = cfg.withDefaults()
	if cfg.Billboards > core.ExactMaxBillboards {
		return nil, fmt.Errorf("experiment: %d billboards beyond the exact solver's bound %d",
			cfg.Billboards, core.ExactMaxBillboards)
	}
	algs := core.PaperAlgorithms(core.LocalSearchOptions{Seed: cfg.Seed, Restarts: cfg.Restarts})
	rows := make([]GapRow, len(algs))
	for i, alg := range algs {
		rows[i] = GapRow{Algorithm: alg.Name(), Instances: cfg.Instances}
	}

	r := rng.New(cfg.Seed).Derive("gap")
	for n := 0; n < cfg.Instances; n++ {
		inst, err := randomSmallInstance(r, cfg)
		if err != nil {
			return nil, err
		}
		opt, err := core.Exact(inst)
		if err != nil {
			return nil, err
		}
		for i, alg := range algs {
			p := alg.SolveCtx(context.Background(), inst).Plan
			if p.TotalRegret() < opt.TotalRegret()-1e-9 {
				return nil, fmt.Errorf("experiment: %s beat the exact optimum (%v < %v) — solver bug",
					alg.Name(), p.TotalRegret(), opt.TotalRegret())
			}
			ratio := (1 + p.TotalRegret()) / (1 + opt.TotalRegret())
			rows[i].MeanRatio += ratio
			if ratio > rows[i].WorstRatio {
				rows[i].WorstRatio = ratio
			}
			if p.TotalRegret() <= opt.TotalRegret()+1e-9 {
				rows[i].OptimalHits++
			}
		}
	}
	for i := range rows {
		rows[i].MeanRatio /= float64(cfg.Instances)
	}
	return rows, nil
}

// randomSmallInstance builds one exact-solvable instance with overlapping
// random coverage and a demanding workload (α ≈ 0.9).
func randomSmallInstance(r *rng.RNG, cfg GapConfig) (*core.Instance, error) {
	nTraj := 20 * cfg.Billboards
	lists := make([]coverage.List, cfg.Billboards)
	for b := range lists {
		deg := 4 + r.Intn(nTraj/3)
		ids := make([]int32, deg)
		for i := range ids {
			ids[i] = int32(r.Intn(nTraj))
		}
		lists[b] = coverage.NewList(ids)
	}
	u, err := coverage.NewUniverse(nTraj, lists)
	if err != nil {
		return nil, err
	}
	supply := float64(u.TotalSupply())
	advs := make([]core.Advertiser, cfg.Advertisers)
	for i := range advs {
		d := int64(0.9 * supply / float64(cfg.Advertisers) * r.Range(0.8, 1.2))
		if d < 1 {
			d = 1
		}
		advs[i] = core.Advertiser{Demand: d, Payment: float64(d) * r.Range(0.9, 1.1)}
	}
	return core.NewInstance(u, advs, 0.5)
}
