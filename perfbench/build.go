package main

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/dataset"
	"repro/internal/market"
	"repro/internal/rng"
)

// The instances the benchmark builds. Every build goes through the public
// layer functions one call at a time — dataset, influence (inside
// Dataset.BuildUniverse), coverage.Compress, catalog.Market and, for the
// zonal variant, the catalog's zone partition — so the traced run can time
// each layer. The pipeline is the one catalog.Build runs; the benchmark's
// tests pin that the result is the same instance.

// fleet is the small default-tier fleet solve-batch solves offline and the
// serve workloads put behind the in-process daemon: NYC base, SG base and
// NYC zonal, 96–100 billboards each, at the paper's default market knobs
// (α = 1, p = 5%, γ = 0.5, λ = 100 m).
var fleet = []catalog.Spec{
	{Name: "nyc", City: "NYC", Scale: 0.25, Seed: 11},
	{Name: "sg", City: "SG", Scale: 0.1, Seed: 12},
	{Name: "nyc-zonal", City: "NYC", Scale: 0.25, Seed: 13,
		Model: &catalog.ModelSpec{Kind: core.ModelZonal, ZoneCap: 1000}},
}

// Paper-scale sizing: one scale-tier NYC universe (the paper's 1462
// billboards, 12% of its 1.7M trips) under a market where the greedy
// solvers disagree. At the paper's default α = 1, p = 5% every solver
// returns the same regret with no advertiser satisfied, so the workload
// would time a search with nothing to improve; paperGuard refuses it.
const (
	paperTrips      = 204_000
	paperDataSeed   = 42
	paperAlpha      = 0.1
	paperP          = 0.005
	paperMarketsPer = 4
)

// builtInstance is one instance and what its build produced.
type builtInstance struct {
	spec catalog.Spec
	inst *core.Instance
	// dense and corridor are the coverage-list entries before and after
	// corridor compression.
	dense, corridor int64
	universe        *coverage.Universe
}

// datasetConfig resolves a default-tier Spec to its generator config, the
// same resolution catalog.Build applies.
func datasetConfig(s catalog.Spec) (dataset.Config, error) {
	switch strings.ToUpper(s.City) {
	case "NYC":
		return dataset.DefaultNYC(s.Seed).Scale(s.Scale), nil
	case "SG":
		return dataset.DefaultSG(s.Seed).Scale(s.Scale), nil
	}
	return dataset.Config{}, fmt.Errorf("unknown city %q", s.City)
}

// buildInstance builds one default-tier Spec layer by layer under parent.
func buildInstance(tr *tracer, parent int, s catalog.Spec) (*builtInstance, error) {
	s = s.Normalized()
	cfg, err := datasetConfig(s)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("dataset.generate", parent)
	d, err := dataset.Generate(cfg)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("%s: generate: %w", s.Name, err)
	}
	sp = tr.begin("influence.coverage", parent)
	u, err := d.BuildUniverse(s.Lambda)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("%s: coverage: %w", s.Name, err)
	}
	b := &builtInstance{spec: s}
	if err := b.compress(tr, parent, u); err != nil {
		return nil, err
	}
	sp = tr.begin("market.build", parent)
	b.inst, err = catalog.Market(b.universe, market.Config{Alpha: s.Alpha, P: s.P}, *s.Gamma,
		rng.New(s.Seed).Derive("market"))
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("%s: market: %w", s.Name, err)
	}
	if s.ModelKind() == core.ModelZonal {
		sp = tr.begin("catalog.build", parent)
		zoneOf, _ := catalog.ZonePartition(d.Billboards.Locations(), s.Model.ZoneMeters)
		zm, err := core.NewZonalModel(zoneOf, s.Model.ZoneCap)
		if err == nil {
			b.inst, err = b.inst.WithModel(zm)
		}
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("%s: zonal model: %w", s.Name, err)
		}
	}
	return b, nil
}

// compress corridor-compresses u and records the list sizes on b.
func (b *builtInstance) compress(tr *tracer, parent int, u *coverage.Universe) error {
	sp := tr.begin("coverage.compress", parent)
	cu, _ := coverage.Compress(u)
	sp.end()
	b.universe = cu
	b.dense, b.corridor = listEntries(u), listEntries(cu)
	if cu.NumTrajectories() != u.NumTrajectories() {
		return fmt.Errorf("compress changed |T| from %d to %d", u.NumTrajectories(), cu.NumTrajectories())
	}
	return nil
}

func listEntries(u *coverage.Universe) int64 {
	var n int64
	for b := 0; b < u.NumBillboards(); b++ {
		n += int64(len(u.List(b)))
	}
	return n
}

// buildFleet builds every fleet instance and registers it in a fresh
// catalog, in fleet order (so generations are 1..len(fleet)).
func buildFleet(tr *tracer, parent int) ([]*builtInstance, *catalog.Catalog, error) {
	cat := catalog.New()
	var out []*builtInstance
	for _, s := range fleet {
		sp := tr.begin("instance", parent)
		b, err := buildInstance(tr, sp.id, s)
		if err == nil {
			reg := tr.begin("catalog.build", sp.id)
			_, err = cat.AddInstance(s.Name, b.inst)
			reg.end()
		}
		sp.end()
		if err != nil {
			return nil, nil, err
		}
		out = append(out, b)
	}
	return out, cat, nil
}

// paperSet is the paper-scale workload's built state: one streamed,
// compressed universe and the markets solved on it.
type paperSet struct {
	built   *builtInstance
	markets []paperMarket
}

type paperMarket struct {
	name string
	inst *core.Instance
}

// paperMarketSeeds returns the market seeds a workload variant solves.
func paperMarketSeeds(variant int) []uint64 {
	seeds := make([]uint64, paperMarketsPer)
	for i := range seeds {
		seeds[i] = uint64(100 + paperMarketsPer*variant + i)
	}
	return seeds
}

// buildPaper stream-builds the scale-tier universe and its markets.
func buildPaper(tr *tracer, parent int, variant int) (*paperSet, error) {
	cfg := dataset.PaperNYC(paperDataSeed)
	cfg.Trajectories = paperTrips
	sp := tr.begin("dataset.stream", parent)
	streamed, err := dataset.GenerateUniverse(cfg, dataset.StreamOptions{Lambda: market.DefaultLambda})
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("paper-scale: stream: %w", err)
	}
	ps := &paperSet{built: &builtInstance{spec: catalog.Spec{Name: "nyc-paper"}}}
	if err := ps.built.compress(tr, parent, streamed.Universe); err != nil {
		return nil, err
	}
	for _, seed := range paperMarketSeeds(variant) {
		sp := tr.begin("market.build", parent)
		inst, err := catalog.Market(ps.built.universe, market.Config{Alpha: paperAlpha, P: paperP},
			market.DefaultGamma, rng.New(seed).Derive("market"))
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("paper-scale: market %d: %w", seed, err)
		}
		ps.markets = append(ps.markets, paperMarket{name: fmt.Sprintf("nyc-paper-m%d", seed), inst: inst})
	}
	ps.built.inst = ps.markets[0].inst
	return ps, nil
}
