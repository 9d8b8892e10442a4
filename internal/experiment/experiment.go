// Package experiment is the evaluation harness: it regenerates every table
// and figure of the paper's Section 7 on the synthetic NYC and SG datasets.
//
// A Runner caches generated datasets and coverage universes (per city and
// λ), then each FigureX method sweeps the relevant parameter grid, runs the
// four methods (G-Order, G-Global, ALS, BLS), and collects effectiveness
// (total regret split into excessive-influence and unsatisfied-penalty
// components) or efficiency (wall-clock time and marginal evaluations).
// Everything is deterministic in the Runner seed.
package experiment

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/dataset"
	"repro/internal/market"
	"repro/internal/rng"
)

// Metrics is the outcome of one algorithm on one instance.
type Metrics struct {
	Algorithm      string
	TotalRegret    float64
	Excess         float64 // excessive-influence component
	Unsatisfied    float64 // unsatisfied-penalty component
	SatisfiedCount int
	NumAdvertisers int
	Runtime        time.Duration
	Evals          int64 // marginal-influence evaluations (work measure)
}

// ExcessPct returns the excessive-influence share of the total regret in
// percent (0 when the total is 0), matching the stacked-bar annotations of
// the paper's figures.
func (m Metrics) ExcessPct() float64 {
	if m.TotalRegret == 0 {
		return 0
	}
	return 100 * m.Excess / m.TotalRegret
}

// UnsatisfiedPct returns the unsatisfied-penalty share in percent.
func (m Metrics) UnsatisfiedPct() float64 {
	if m.TotalRegret == 0 {
		return 0
	}
	return 100 * m.Unsatisfied / m.TotalRegret
}

// Run solves the instance with the algorithm and collects metrics.
func Run(inst *core.Instance, alg core.Algorithm) Metrics {
	start := time.Now()
	plan := alg.SolveCtx(context.Background(), inst).Plan
	elapsed := time.Since(start)
	excess, unsat := plan.Breakdown()
	return Metrics{
		Algorithm:      alg.Name(),
		TotalRegret:    plan.TotalRegret(),
		Excess:         excess,
		Unsatisfied:    unsat,
		SatisfiedCount: plan.SatisfiedCount(),
		NumAdvertisers: inst.NumAdvertisers(),
		Runtime:        elapsed,
		Evals:          plan.Evals(),
	}
}

// Point is one x-position of a figure (one bar group): a parameter setting
// and the metrics of every method at that setting.
type Point struct {
	Label   string
	Metrics []Metrics
}

// Figure is one (sub-)figure: an identifier, a caption, and its points.
type Figure struct {
	ID     string
	Title  string
	Points []Point
}

// Config tunes the harness.
type Config struct {
	// Scale multiplies the default dataset sizes (1.0 reproduces the
	// repository's full synthetic scale; tests use much less). Values
	// <= 0 select 1.0.
	Scale float64
	// Seed drives dataset generation, market generation and the
	// randomized searches.
	Seed uint64
	// Restarts is the local search restart count (Algorithm 3's preset
	// iteration count); values < 1 select core.DefaultRestarts.
	Restarts int
	// Parallel runs a figure's points concurrently with up to this many
	// workers (0/1 = sequential). Results are deterministic regardless;
	// per-point Runtime readings become noisy under contention, so the
	// efficiency figures (8-9) always run sequentially.
	Parallel int
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if c.Restarts < 1 {
		c.Restarts = core.DefaultRestarts
	}
	return c
}

// Runner generates datasets lazily and caches coverage universes per
// (city, λ). It is not safe for concurrent use.
type Runner struct {
	cfg       Config
	datasets  map[dataset.City]*dataset.Dataset
	universes map[universeKey]*coverage.Universe
}

type universeKey struct {
	city   dataset.City
	lambda float64
}

// NewRunner returns a harness with the given configuration.
func NewRunner(cfg Config) *Runner {
	return &Runner{
		cfg:       cfg.withDefaults(),
		datasets:  make(map[dataset.City]*dataset.Dataset),
		universes: make(map[universeKey]*coverage.Universe),
	}
}

// Config returns the effective (defaulted) configuration.
func (r *Runner) Config() Config { return r.cfg }

// Dataset returns the generated dataset for the city, generating it on
// first use.
func (r *Runner) Dataset(city dataset.City) (*dataset.Dataset, error) {
	if d, ok := r.datasets[city]; ok {
		return d, nil
	}
	d, err := catalog.BuildDataset(catalog.Spec{
		City:  city.String(),
		Scale: r.cfg.Scale,
		Seed:  r.cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	r.datasets[city] = d
	return d, nil
}

// Universe returns the corridor-compressed coverage universe for
// (city, λ), building it on first use. Like catalog.Build, the harness
// solves on the compressed substrate; every influence quantity, and so
// every figure, is identical to the raw universe's.
func (r *Runner) Universe(city dataset.City, lambda float64) (*coverage.Universe, error) {
	key := universeKey{city, lambda}
	if u, ok := r.universes[key]; ok {
		return u, nil
	}
	d, err := r.Dataset(city)
	if err != nil {
		return nil, err
	}
	u, err := d.BuildUniverse(lambda)
	if err != nil {
		return nil, err
	}
	cu, _ := coverage.Compress(u)
	r.universes[key] = cu
	return cu, nil
}

// instance builds the MROAM instance for one parameter setting. The market
// RNG is derived from (city, α, p) only: γ and λ sweeps must vary the
// objective or the influence model over the *same* advertiser market, as in
// the paper's Figures 10-12 — deriving per-(γ, λ) would redraw the ω/ε
// noise each cell and bury the trend in market noise near the α=1
// satisfiability cliff. Demands still scale with the λ-dependent supply
// I*(λ) through the market generator.
func (r *Runner) instance(city dataset.City, alpha, p, gamma, lambda float64) (*core.Instance, error) {
	u, err := r.Universe(city, lambda)
	if err != nil {
		return nil, err
	}
	mr := rng.New(r.cfg.Seed).Derive(fmt.Sprintf("market/%s/a%.2f/p%.2f", city, alpha, p))
	return catalog.Market(u, market.Config{Alpha: alpha, P: p}, gamma, mr)
}

// algorithms returns the paper's four methods configured for this runner.
func (r *Runner) algorithms() []core.Algorithm {
	return core.PaperAlgorithms(core.LocalSearchOptions{Seed: r.cfg.Seed, Restarts: r.cfg.Restarts})
}

// runPoint solves one instance with all four methods.
func (r *Runner) runPoint(label string, inst *core.Instance) Point {
	pt := Point{Label: label}
	for _, alg := range r.algorithms() {
		pt.Metrics = append(pt.Metrics, Run(inst, alg))
	}
	return pt
}

// runPoints solves every labeled instance with all four methods,
// concurrently when cfg.Parallel > 1 (and sequential is not forced).
// Points are returned in input order either way.
func (r *Runner) runPoints(labels []string, insts []*core.Instance, forceSequential bool) []Point {
	points := make([]Point, len(insts))
	workers := r.cfg.Parallel
	if workers <= 1 || forceSequential || len(insts) < 2 {
		for i := range insts {
			points[i] = r.runPoint(labels[i], insts[i])
		}
		return points
	}
	if workers > len(insts) {
		workers = len(insts)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				points[i] = r.runPoint(labels[i], insts[i])
			}
		}()
	}
	for i := range insts {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return points
}
