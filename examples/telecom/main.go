// telecom: the paper's General Applicability scenario (Section 1).
//
// A tower company (the host) leases telecommunication towers to mobile
// operators (the advertisers). Each tower reaches a set of subscribers;
// each operator demands a subscriber count and commits a payment. Nothing
// is geographic here — the solvers only need the tower→subscriber coverage
// structure, built directly with mroam.NewUniverse. Regret is exactly the
// paper's: unsatisfied operators pay partially (penalty ratio γ), and
// over-provisioned capacity is opportunity cost.
//
//	go run ./examples/telecom
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sort"

	mroam "repro"
)

func main() {
	const (
		towers      = 60
		subscribers = 20000
		operators   = 6
		seed        = 99
	)
	r := rand.New(rand.NewSource(seed))

	// Each tower reaches a contiguous neighborhood of subscribers plus
	// some roaming spillover, so nearby towers overlap — the same
	// structure billboard coverage has.
	lists := make([]mroam.CoverageList, towers)
	for t := range lists {
		center := r.Intn(subscribers)
		reach := 150 + r.Intn(500)
		ids := make([]int32, 0, reach+50)
		for k := -reach / 2; k < reach/2; k++ {
			id := (center + k + subscribers) % subscribers
			ids = append(ids, int32(id))
		}
		for k := 0; k < 50; k++ { // roaming spillover
			ids = append(ids, int32(r.Intn(subscribers)))
		}
		lists[t] = dedup(ids)
	}
	u, err := mroam.NewUniverse(subscribers, lists)
	if err != nil {
		log.Fatal(err)
	}

	// Operators: one incumbent with a big contract, mid-size carriers,
	// and small virtual operators.
	demand := []int64{6000, 3500, 2500, 1500, 800, 400}
	advs := make([]mroam.Advertiser, operators)
	for i := range advs {
		advs[i] = mroam.Advertiser{
			Demand:  demand[i],
			Payment: float64(demand[i]) * (0.9 + 0.2*r.Float64()),
		}
	}
	inst, err := mroam.NewInstance(u, advs, mroam.DefaultGamma)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("tower company: %d towers, %d subscribers reachable (capacity %d)\n",
		towers, subscribers, u.TotalSupply())
	fmt.Printf("operators: total demand %d (α = %.0f%%)\n\n",
		inst.TotalDemand(), inst.DemandSupplyRatio()*100)

	for _, alg := range mroam.Algorithms(mroam.SearchOptions{Seed: seed, Restarts: 4}) {
		plan := mroam.SolveAnytime(context.Background(), alg, inst).Plan
		excess, unsat := plan.Breakdown()
		fmt.Printf("%-8s regret %8.1f  (over-provisioned %7.1f, under-served %7.1f)\n",
			alg.Name(), plan.TotalRegret(), excess, unsat)
	}

	best := mroam.BLS(inst, mroam.SearchOptions{Restarts: 6, Seed: seed})
	fmt.Println("\nBLS allocation:")
	for i := 0; i < operators; i++ {
		fmt.Printf("  operator %d: demand %5d, delivered %5d, towers %2d, regret %7.1f\n",
			i, advs[i].Demand, best.Influence(i), best.SetSize(i), best.Regret(i))
	}
}

// dedup sorts and deduplicates subscriber IDs into a valid coverage list.
func dedup(ids []int32) mroam.CoverageList {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			out = append(out, id)
		}
	}
	return mroam.CoverageList(out)
}
