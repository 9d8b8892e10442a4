package coverage

import "fmt"

// Subuniverse restricts a universe to a subset of its billboards — the
// operation a host performs when part of the inventory is already leased:
// the day's allocation problem only sees the free billboards.
//
// The returned universe shares the coverage lists of the original (they are
// immutable) and exposes the kept billboards under dense IDs 0..len(keep)−1
// in the order given. The trajectory universe is unchanged, so influences
// computed in the subuniverse equal those in the original. The mapping from
// sub-IDs back to original IDs is the keep slice itself. The weights are
// shared too; dropping billboards can leave distinct IDs with equal
// signatures, so the result is never marked compressed and Compress merges
// such IDs again.
func (u *Universe) Subuniverse(keep []int) (*Universe, error) {
	lists := make([]List, len(keep))
	seen := make(map[int]bool, len(keep))
	sub := &Universe{
		numTrajectories: u.numTrajectories,
		lists:           lists,
		weights:         u.weights,
		degrees:         make([]int, len(keep)),
	}
	for i, b := range keep {
		if b < 0 || b >= len(u.lists) {
			return nil, fmt.Errorf("coverage: keep[%d] = %d out of range [0, %d)", i, b, len(u.lists))
		}
		if seen[b] {
			return nil, fmt.Errorf("coverage: keep[%d] = %d duplicated", i, b)
		}
		seen[b] = true
		lists[i] = u.lists[b]
		d := u.degrees[b]
		sub.degrees[i] = d
		sub.maxDegree = max(sub.maxDegree, d)
		sub.totalSupply += int64(d)
	}
	return sub, nil
}
