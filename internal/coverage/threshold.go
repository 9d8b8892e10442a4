package coverage

import "fmt"

// UnionCountK evaluates the impression-count influence I_k(S) from scratch:
// the number of trajectories covered by at least k of the given billboards
// (Zhang et al., KDD 2019, the alternative measurement the paper cites in
// §2.2). UnionCount is its k = 1 case. It is the reference evaluator for
// Counters built with NewCounterWithThreshold.
func (u *Universe) UnionCountK(billboards []int, k int) int {
	if k < 1 {
		panic(fmt.Sprintf("coverage: impression threshold %d < 1", k))
	}
	counts := make([]int32, len(u.weights))
	covered := 0
	for _, b := range billboards {
		for _, t := range u.lists[b] {
			counts[t]++
			if counts[t] == int32(k) {
				covered += u.Weight(t)
			}
		}
	}
	return covered
}
