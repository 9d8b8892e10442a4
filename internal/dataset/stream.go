package dataset

import (
	"fmt"

	"repro/internal/billboard"
	"repro/internal/coverage"
	"repro/internal/geo"
	"repro/internal/influence"
	"repro/internal/rng"
	"repro/internal/trajectory"
)

// Streaming paper-scale generation. Generate materializes every trajectory
// before the spatial join, which at the paper's real dataset sizes
// (Table 5: |T| = 1.7M NYC, 2.2M SG) means tens of millions of points —
// gigabytes of transient geometry that the algorithms never look at again.
// GenerateUniverse instead generates trips in fixed-size chunks, joins each
// chunk against the billboards with a chunk-local grid index, appends the
// chunk's coverage, and discards the geometry. Peak memory is one chunk of
// trips plus the accumulated coverage lists.
//
// The streamed build is bit-identical to Generate + BuildUniverse for the
// same Config and λ: the fixed infrastructure (grid/billboards, routes/
// ridership) comes from the same named RNG substreams, trips are drawn from
// one sequential "trips" substream exactly as Generate draws them, and
// coverage is order-insensitive (chunk trip IDs ascend, so per-chunk sorted
// lists concatenate into globally sorted lists). Equivalence is enforced by
// TestStreamedBuildMatchesMaterialized.

// PaperNYC returns the NYC configuration at the paper's full scale
// (Table 5: |T| = 1.7M, |U| = 1462). Grid geometry matches DefaultNYC;
// only the trajectory and billboard counts grow.
func PaperNYC(seed uint64) Config {
	c := DefaultNYC(seed)
	c.Trajectories = 1_700_000
	c.Billboards = 1462
	return c
}

// PaperSG returns the SG configuration at the paper's full scale (Table 5:
// |T| = 2.2M, |U| = 4092 = 124 routes × 33 stops).
func PaperSG(seed uint64) Config {
	c := DefaultSG(seed)
	c.Trajectories = 2_200_000
	c.Routes = 124
	c.StopsPerRoute = 33
	return c
}

// StreamOptions configures a streaming universe build.
type StreamOptions struct {
	// Lambda is the influence radius in meters. Must be positive.
	Lambda float64
	// ChunkSize is the number of trajectories generated and joined per
	// chunk; 0 selects 100000.
	ChunkSize int
}

// Streamed is the result of a streaming build: the coverage universe and
// billboard inventory (with costs assigned), plus the Table-5 trajectory
// statistics accumulated on the fly — the trajectories themselves are gone.
type Streamed struct {
	Config     Config
	Universe   *coverage.Universe
	Billboards *billboard.DB
	Stats      trajectory.Stats
}

// Table5 computes the dataset-statistics row without a trajectory DB.
func (s *Streamed) Table5() Table5Row {
	return Table5Row{
		Name:          s.Config.City.String(),
		NumTraj:       s.Stats.Count,
		NumBillboards: s.Billboards.Len(),
		AvgDistanceKM: s.Stats.AvgDistanceM / 1000,
		AvgTravelSec:  s.Stats.AvgTravelTime,
	}
}

// GenerateUniverse builds the coverage universe for the configuration at
// the given options without ever materializing the full trajectory set.
func GenerateUniverse(c Config, opts StreamOptions) (*Streamed, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if opts.Lambda <= 0 {
		return nil, fmt.Errorf("dataset: lambda %v must be positive", opts.Lambda)
	}
	chunk := opts.ChunkSize
	if chunk <= 0 {
		chunk = 100_000
	}
	// Mirror influence.BuildCoverage's default cell size so the chunk-local
	// grids probe identical neighborhoods.
	cell := opts.Lambda
	if cell < 10 {
		cell = 10
	}

	r := rng.New(c.Seed).Derive(c.City.String())
	var nextTrip func() trajectory.Trajectory
	var bills []billboard.Billboard
	switch c.City {
	case NYC:
		grid := newNYCGrid(c, r.Derive("grid"))
		bills = genNYCBillboards(c, grid, r.Derive("billboards"))
		tripRNG := r.Derive("trips")
		nextTrip = func() trajectory.Trajectory { return genNYCTrip(grid, tripRNG) }
	case SG:
		routes, sgBills, cdf := genSGNetwork(c, r)
		bills = sgBills
		tripRNG := r.Derive("trips")
		nextTrip = func() trajectory.Trajectory {
			route := &routes[sampleCDF(cdf, tripRNG)]
			return genSGTrip(c, route, tripRNG)
		}
	default:
		return nil, fmt.Errorf("dataset: unknown city %d", c.City)
	}
	bdb := billboard.NewDB(bills)

	lists := make([]coverage.List, len(bills))
	var stats trajectory.Stats
	var sumDist, sumTime float64

	var points []geo.Point
	var owner []int32
	for base := 0; base < c.Trajectories; base += chunk {
		n := chunk
		if base+n > c.Trajectories {
			n = c.Trajectories - base
		}
		points = points[:0]
		owner = owner[:0]
		for i := 0; i < n; i++ {
			t := nextTrip()
			t.ID = int32(base + i)
			if err := t.Validate(); err != nil {
				return nil, err
			}
			sumDist += t.Distance()
			sumTime += t.TravelTime()
			stats.TotalPoints += len(t.Points)
			points = append(points, t.Points...)
			for range t.Points {
				owner = append(owner, t.ID)
			}
		}
		stats.Count += n

		// Chunk trip IDs all exceed every earlier chunk's, so appending
		// each sorted chunk list keeps a billboard's full list sorted and
		// duplicate-free.
		influence.JoinBillboards(geo.NewGrid(points, cell), owner, bdb, opts.Lambda, 0, nil,
			func(b int, l coverage.List) { lists[b] = append(lists[b], l...) })
	}
	if stats.Count > 0 {
		stats.AvgDistanceM = sumDist / float64(stats.Count)
		stats.AvgTravelTime = sumTime / float64(stats.Count)
	}

	u, err := coverage.NewUniverse(c.Trajectories, lists)
	if err != nil {
		return nil, err
	}
	infl := make([]int, u.NumBillboards())
	for b := range infl {
		infl[b] = u.Degree(b)
	}
	if err := bdb.AssignCosts(infl, rng.New(c.Seed).Derive("costs")); err != nil {
		return nil, err
	}
	return &Streamed{Config: c, Universe: u, Billboards: bdb, Stats: stats}, nil
}
