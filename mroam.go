// Package mroam is a from-scratch Go implementation of "Minimizing the
// Regret of an Influence Provider" (Zhang, Li, Bao, Zheng, Jagadish —
// SIGMOD 2021): the MROAM problem, in which an out-of-home advertising host
// assigns billboards to advertisers so as to minimize its total regret from
// unsatisfied demands and wasted (excessive) influence.
//
// The package is the public facade over the repository's internals. A
// typical session:
//
//	ds, _ := mroam.GenerateNYC(42, 0.25)             // synthetic taxi city
//	u, _ := ds.BuildUniverse(mroam.DefaultLambda)    // influence model, λ=100m
//	advs, _ := mroam.GenerateMarket(u, mroam.MarketConfig{Alpha: 1.0, P: 0.05}, 7)
//	inst, _ := mroam.NewInstance(u, advs, mroam.DefaultGamma)
//	plan := mroam.BLS(inst, mroam.SearchOptions{Restarts: 10, Seed: 7})
//	fmt.Println(plan.TotalRegret(), plan.SatisfiedCount())
//
// The four solvers of the paper are exposed as GOrder, GGlobal, ALS and
// BLS; Exact is a brute-force oracle for small instances. Algorithms
// returns the same four as Algorithm values, and SolveAnytime runs one
// under a context: a deadline or cancellation cuts the solve short and it
// still returns the best complete plan found (DESIGN.md §8). The
// experiment harness (NewExperiment) regenerates every table and figure of
// the paper's evaluation; see EXPERIMENTS.md.
package mroam

import (
	"context"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/dataset"
	"repro/internal/experiment"
	"repro/internal/influence"
	"repro/internal/market"
	"repro/internal/rng"
)

// Core problem types, re-exported from the internal implementation.
type (
	// Advertiser is one campaign proposal: demand I_i and payment L_i.
	Advertiser = core.Advertiser
	// Instance is one MROAM problem: universe + advertisers + γ.
	Instance = core.Instance
	// Plan is a (partial) assignment of billboards to advertisers.
	Plan = core.Plan
	// Algorithm is a named MROAM solver.
	Algorithm = core.Algorithm
	// SearchOptions configures the randomized local search framework.
	SearchOptions = core.LocalSearchOptions
	// Model is the pluggable regret-model seam: the per-advertiser
	// objective and feasibility semantics one problem variant carries
	// (DESIGN.md §15). Instance.Model returns the attached model;
	// Instance.WithModel swaps it.
	Model = core.Model
	// BaseModel is the paper's MROAM market, the default model.
	BaseModel = core.BaseModel
	// ZonalModel is the zonal-influence-constrained variant: the base
	// objective under per-zone caps on each advertiser's counted
	// influence supply.
	ZonalModel = core.ZonalModel
	// Universe is the billboard-to-trajectory coverage structure
	// consumed by instances.
	Universe = coverage.Universe
	// CoverageList is one billboard's sorted trajectory-ID list.
	CoverageList = coverage.List
	// Dataset bundles generated trajectories and billboards.
	Dataset = dataset.Dataset
	// DatasetConfig parameterizes the synthetic city generators.
	DatasetConfig = dataset.Config
	// MarketConfig holds the α/p workload knobs of the paper's §7.1.3.
	MarketConfig = market.Config
)

// Paper default parameters (Table 6 bold entries).
const (
	// DefaultGamma is the default unsatisfied penalty ratio γ.
	DefaultGamma = market.DefaultGamma
	// DefaultLambda is the default influence radius λ in meters.
	DefaultLambda = float64(market.DefaultLambda)
	// DefaultAlpha is the default demand-supply ratio α.
	DefaultAlpha = market.DefaultAlpha
	// DefaultP is the default average-individual demand ratio p.
	DefaultP = market.DefaultP
)

// Unassigned is Plan.Owner's value for a billboard not assigned to any
// advertiser.
const Unassigned = core.Unassigned

// NewInstance validates and constructs an MROAM instance over a coverage
// universe with the given advertisers and unsatisfied penalty ratio γ.
func NewInstance(u *Universe, advertisers []Advertiser, gamma float64) (*Instance, error) {
	return core.NewInstance(u, advertisers, gamma)
}

// NewUniverse builds a coverage universe directly from per-billboard
// trajectory-ID lists — the entry point for applying the solvers to
// non-geographic resource-provisioning problems (trucks, store locations,
// telecom towers; see the paper's General Applicability discussion and
// examples/telecom).
func NewUniverse(numTrajectories int, lists []CoverageList) (*Universe, error) {
	return coverage.NewUniverse(numTrajectories, lists)
}

// NewPlan returns the empty deployment plan for an instance; use it to
// build plans by hand (Plan.Assign/Release) or as input to the solvers'
// building blocks.
func NewPlan(inst *Instance) *Plan { return core.NewPlan(inst) }

// NewZonalModel builds the zonal-constraint model over a billboard→zone
// partition (zoneOf indexed by billboard ID) with a uniform per-zone cap on
// each advertiser's counted influence supply. Attach it to an instance with
// Instance.WithModel; catalog-built zonal instances do this automatically.
func NewZonalModel(zoneOf []int, cap int64) (*ZonalModel, error) {
	return core.NewZonalModel(zoneOf, cap)
}

// GOrder runs the budget-effective greedy (paper Algorithm 1, "G-Order").
func GOrder(inst *Instance) *Plan { return core.GreedyOrder(inst) }

// GGlobal runs the synchronous greedy (paper Algorithm 2, "G-Global").
func GGlobal(inst *Instance) *Plan { return core.GGlobal(inst) }

// ALS runs the randomized local search framework with the advertiser-driven
// neighborhood (paper Algorithms 3+4).
func ALS(inst *Instance, opts SearchOptions) *Plan {
	opts.Search = core.AdvertiserDriven
	return core.RandomizedLocalSearch(inst, opts)
}

// BLS runs the randomized local search framework with the billboard-driven
// neighborhood (paper Algorithms 3+5), the paper's strongest method.
func BLS(inst *Instance, opts SearchOptions) *Plan {
	opts.Search = core.BillboardDriven
	return core.RandomizedLocalSearch(inst, opts)
}

// Exact computes the optimal plan by exhaustive search; it errors on
// instances beyond a small size bound (MROAM is NP-hard — Exact exists as
// a ground-truth oracle).
func Exact(inst *Instance) (*Plan, error) { return core.Exact(inst) }

// Anytime is the result of a context-aware solve: the best complete plan
// found, restarts completed, and whether the deadline or a cancellation
// truncated the run (see DESIGN.md §8 for the contract).
type Anytime = core.Anytime

// SolveAnytime runs alg under ctx. With a context that never fires the
// plan is bit-identical to the blocking forms (GOrder, GGlobal, ALS, BLS).
func SolveAnytime(ctx context.Context, alg Algorithm, inst *Instance) *Anytime {
	return core.SolveAnytime(ctx, alg, inst)
}

// Algorithms returns the paper's four methods (G-Order, G-Global, ALS,
// BLS) in the evaluation's presentation order. opts configures ALS and BLS
// — most usefully SearchOptions.Workers, which fans their restart loop out
// over a goroutine pool while returning results bit-identical to the
// serial run.
func Algorithms(opts SearchOptions) []Algorithm {
	return core.PaperAlgorithms(opts)
}

// GenerateNYC generates the synthetic Manhattan-like taxi dataset at the
// given fraction of the default scale (1.0 = 40k trips, 400 billboards).
func GenerateNYC(seed uint64, scale float64) (*Dataset, error) {
	return catalog.BuildDataset(catalog.Spec{City: "NYC", Scale: scale, Seed: seed})
}

// GenerateSG generates the synthetic Singapore-like bus dataset at the
// given fraction of the default scale (1.0 = 55k trips, 1152 bus-stop
// billboards).
func GenerateSG(seed uint64, scale float64) (*Dataset, error) {
	return catalog.BuildDataset(catalog.Spec{City: "SG", Scale: scale, Seed: seed})
}

// LoadDataset reads a dataset directory previously written by
// Dataset.Save.
func LoadDataset(dir string) (*Dataset, error) {
	return catalog.BuildDataset(catalog.Spec{Data: dir})
}

// BuildCoverage runs the influence model (§7.1.2) over arbitrary
// trajectory and billboard databases: billboard o covers trajectory t iff
// some point of t is within lambda meters of o. Dataset.BuildUniverse is
// the one-call variant for generated datasets.
var BuildCoverage = influence.BuildCoverage

// GenerateMarket generates an advertiser set from the α/p workload knobs
// (§7.1.3) over the universe, deterministically in seed.
func GenerateMarket(u *Universe, cfg MarketConfig, seed uint64) ([]Advertiser, error) {
	return market.Generate(u, cfg, rng.New(seed))
}

// Experiment harness types, re-exported for the benchmark suite and CLI.
type (
	// ExperimentConfig tunes the evaluation harness.
	ExperimentConfig = experiment.Config
	// Experiment regenerates the paper's tables and figures.
	Experiment = experiment.Runner
	// FigureResult is one rendered figure's data.
	FigureResult = experiment.Figure
	// RunMetrics is the outcome of one algorithm on one instance.
	RunMetrics = experiment.Metrics
)

// NewExperiment returns the evaluation harness that regenerates the
// paper's tables and figures (see EXPERIMENTS.md and bench_test.go).
func NewExperiment(cfg ExperimentConfig) *Experiment {
	return experiment.NewRunner(cfg)
}
