// dailyops: the operational setting of the paper's introduction — "the
// host needs to deal with multiple advertisers coming every day."
//
// The example simulates 30 days of a billboard market on the synthetic NYC
// city: proposals arrive daily, contracts lock billboards for several days,
// and payments follow Equation 1's business model (full on satisfaction,
// γ-scaled fraction otherwise). It runs the identical market once per
// allocation policy and reports what the host banks under each — turning
// the one-shot regret numbers of the paper's figures into revenue over time.
//
//	go run ./examples/dailyops
package main

import (
	"fmt"
	"log"

	mroam "repro"
)

func main() {
	const seed = 11
	ds, err := mroam.GenerateNYC(seed, 0.12)
	if err != nil {
		log.Fatal(err)
	}
	u, err := ds.BuildUniverse(mroam.DefaultLambda)
	if err != nil {
		log.Fatal(err)
	}

	cfg := mroam.SimulationConfig{
		Days:             30,
		ArrivalsPerDay:   4,
		ContractMinDays:  3,
		ContractMaxDays:  7,
		DemandFractionLo: 0.08,
		DemandFractionHi: 0.22,
		Gamma:            mroam.DefaultGamma,
		Seed:             seed,
	}

	results, err := mroam.ComparePolicies(u, mroam.Algorithms(mroam.SearchOptions{Seed: seed, Restarts: 2}), cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("30-day market on NYC (%d billboards, %d trips)\n\n",
		ds.Billboards.Len(), ds.Trajectories.Len())
	fmt.Println("policy     revenue   cum.regret  satisfied/proposals")
	for _, name := range []string{"G-Order", "G-Global", "ALS", "BLS"} {
		r := results[name]
		fmt.Printf("%-9s %9.0f   %9.0f   %d/%d\n",
			name, r.TotalRevenue, r.TotalRegret, r.TotalSatisfied, r.TotalProposals)
	}

	fmt.Println("\nfirst week under BLS:")
	fmt.Println("day  arrived  satisfied  booked  regret  free/held billboards")
	for _, d := range results["BLS"].Days[:7] {
		fmt.Printf("%3d  %7d  %9d  %6.0f  %6.0f  %d/%d\n",
			d.Day, d.Arrived, d.Satisfied, d.RevenueBooked, d.DayRegret,
			d.FreeBillboards, d.HeldBillboards)
	}
}
