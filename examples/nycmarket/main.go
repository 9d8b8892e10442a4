// nycmarket: a host running a Manhattan-style billboard market.
//
// The example generates the synthetic NYC taxi dataset, builds the
// influence model at λ=100 m, and walks the demand-supply ratio α from a
// quiet market (40%) to an oversubscribed one (120%), comparing all four
// allocation methods. It prints the regret breakdown the paper's stacked
// bars report: when supply is plentiful the regret is wasted (excessive)
// influence; when demand outstrips supply the unsatisfied penalty takes
// over, and a careful allocator (BLS) is worth several times the greedy.
//
//	go run ./examples/nycmarket
package main

import (
	"context"
	"fmt"
	"log"

	mroam "repro"
)

func main() {
	const (
		seed  = 42
		scale = 0.15 // keep the example snappy; raise for larger markets
	)
	ds, err := mroam.GenerateNYC(seed, scale)
	if err != nil {
		log.Fatal(err)
	}
	row := ds.Table5()
	fmt.Printf("NYC market: %d taxi trips, %d billboards (avg trip %.1f km, %.0f s)\n\n",
		row.NumTraj, row.NumBillboards, row.AvgDistanceKM, row.AvgTravelSec)

	u, err := ds.BuildUniverse(mroam.DefaultLambda)
	if err != nil {
		log.Fatal(err)
	}

	for _, alpha := range []float64{0.4, 0.8, 1.2} {
		advs, err := mroam.GenerateMarket(u, mroam.MarketConfig{Alpha: alpha, P: mroam.DefaultP}, seed)
		if err != nil {
			log.Fatal(err)
		}
		inst, err := mroam.NewInstance(u, advs, mroam.DefaultGamma)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("α = %.0f%% — %d advertisers, total demand %d vs supply %d\n",
			alpha*100, inst.NumAdvertisers(), inst.TotalDemand(), u.TotalSupply())
		for _, alg := range mroam.Algorithms(mroam.SearchOptions{Seed: seed, Restarts: 3}) {
			plan := mroam.SolveAnytime(context.Background(), alg, inst).Plan
			excess, unsat := plan.Breakdown()
			fmt.Printf("  %-8s regret %8.1f  (waste %7.1f, unsatisfied %7.1f, satisfied %d/%d)\n",
				alg.Name(), plan.TotalRegret(), excess, unsat,
				plan.SatisfiedCount(), inst.NumAdvertisers())
		}
		fmt.Println()
	}
}
