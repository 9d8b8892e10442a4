// Quickstart: the paper's running example (Tables 1-4 of Section 1),
// solved by hand and by the library's algorithms.
//
// A host owns six billboards with influences {2, 6, 3, 7, 1, 1}; three
// advertisers demand influence (5, 7, 8) for payments ($10, $11, $20).
// Strategy 1 wastes influence on a1 and fails a3; Strategy 2 satisfies
// everyone exactly — zero regret. BLS and the exact solver both find it.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	mroam "repro"
)

func main() {
	// Each billboard influences its own disjoint block of trajectories,
	// exactly as in the paper's example (influence = audience count).
	influences := []int{2, 6, 3, 7, 1, 1}
	lists := make([]mroam.CoverageList, len(influences))
	next := int32(0)
	for i, n := range influences {
		for j := 0; j < n; j++ {
			lists[i] = append(lists[i], next)
			next++
		}
	}
	u, err := mroam.NewUniverse(int(next), lists)
	if err != nil {
		log.Fatal(err)
	}

	inst, err := mroam.NewInstance(u, []mroam.Advertiser{
		{Demand: 5, Payment: 10}, // a1
		{Demand: 7, Payment: 11}, // a2
		{Demand: 8, Payment: 20}, // a3
	}, mroam.DefaultGamma)
	if err != nil {
		log.Fatal(err)
	}

	// Strategy 1 (Table 3): a1←{o2}, a2←{o4}, a3←{o1,o3,o5,o6}.
	s1 := mroam.NewPlan(inst)
	s1.Assign(1, 0)
	s1.Assign(3, 1)
	for _, b := range []int{0, 2, 4, 5} {
		s1.Assign(b, 2)
	}
	fmt.Printf("Strategy 1: regret %.2f (a3 satisfied: %v)\n", s1.TotalRegret(), s1.Satisfied(2))

	// Strategy 2 (Table 4): a1←{o1,o3}, a2←{o4}, a3←{o2,o5,o6}.
	s2 := mroam.NewPlan(inst)
	s2.Assign(0, 0)
	s2.Assign(2, 0)
	s2.Assign(3, 1)
	for _, b := range []int{1, 4, 5} {
		s2.Assign(b, 2)
	}
	fmt.Printf("Strategy 2: regret %.2f (all satisfied: %v)\n", s2.TotalRegret(), s2.SatisfiedCount() == 3)

	// The algorithms find the zero-regret deployment on their own.
	for _, alg := range mroam.Algorithms(mroam.SearchOptions{Seed: 1, Restarts: 5}) {
		plan := mroam.SolveAnytime(context.Background(), alg, inst).Plan
		fmt.Printf("%-8s → regret %.2f, satisfied %d/3\n",
			alg.Name(), plan.TotalRegret(), plan.SatisfiedCount())
	}

	// And the exhaustive oracle confirms 0 is optimal.
	opt, err := mroam.Exact(inst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Exact    → regret %.2f (optimal)\n", opt.TotalRegret())
}
