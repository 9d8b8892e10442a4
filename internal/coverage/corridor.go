package coverage

// Corridor pre-aggregation. Two trajectories with the same coverage
// signature — covered by exactly the same billboards — are interchangeable
// to every algorithm in this repository: I(S) only asks how many
// trajectories the union covers, never which. Compress exploits this by
// collapsing each signature class into one weighted "corridor" ID, shrinking
// the coverage ID space from |T| to the number of distinct signatures. In
// gridded synthetic data (and the corridor-following movement of the real
// datasets) that is a 4–50× reduction: every bus rider boarding and
// alighting at the same pair of stops shares one corridor.
//
// Correctness is by construction, not approximation. For any billboard set S
//
//	I(S) = |⋃_{b∈S} cover(b)| = Σ_{corridors c hit by S} weight(c)
//
// because the signature classes partition the covered trajectories and a
// corridor is hit by S iff each of its trajectories is covered by S. Degree,
// MaxDegree, TotalSupply, Counter gains/losses and every CELF bound are
// therefore bit-identical between the substrates, and so are the solver's
// plans: tie-breaks compare billboard IDs and influence values only, never
// raw trajectory IDs.

import (
	"fmt"
	"slices"
)

// CompressionStats reports what corridor compression achieved on one
// universe.
type CompressionStats struct {
	// RawTrajectories is |T| of the source universe, including
	// trajectories covered by no billboard.
	RawTrajectories int `json:"raw_trajectories"`
	// Covered is the number of raw trajectories with non-empty coverage —
	// the only ones that need a corridor.
	Covered int `json:"covered_trajectories"`
	// Corridors is the number of distinct coverage signatures: the size of
	// the compressed ID space.
	Corridors int `json:"corridors"`
	// Ratio is RawTrajectories / Corridors — how much smaller every
	// per-ID array becomes (1 when nothing compressed).
	Ratio float64 `json:"compression_ratio"`
}

// statsFor fills the derived Ratio field.
func statsFor(raw, covered, corridors int) CompressionStats {
	s := CompressionStats{RawTrajectories: raw, Covered: covered, Corridors: corridors}
	if corridors > 0 {
		s.Ratio = float64(raw) / float64(corridors)
	} else {
		s.Ratio = 1
	}
	return s
}

// Compress returns a corridor-compressed universe equivalent to u: same
// billboards, same influence for every billboard set, but with coverage IDs
// of identical signature collapsed into single corridor IDs whose weight is
// the sum of their members' weights. A universe Compress itself returned is
// returned unchanged.
//
// Corridor IDs are assigned in ascending order of each class's smallest
// source ID, so the result is deterministic and independent of internal
// grouping order.
func Compress(u *Universe) (*Universe, CompressionStats) {
	if u.compressed {
		var covered int64
		for _, w := range u.weights {
			covered += int64(w)
		}
		return u, statsFor(u.numTrajectories, int(covered), len(u.weights))
	}

	// sig(t) = ascending billboard IDs covering t.
	inc := u.Incidence()
	n := len(u.weights)
	sigOf := inc.Billboards

	// Group IDs by signature: hash buckets, then exact verification inside
	// each bucket so collisions can never merge two distinct signatures.
	// Bucket members arrive in ascending ID order, so each class's first
	// member is its smallest.
	buckets := make(map[uint64][]int32, n)
	covered := 0
	for t := int32(0); int(t) < n; t++ {
		s := sigOf(t)
		if len(s) == 0 {
			continue // uncovered: contributes to no influence, needs no ID
		}
		covered += u.Weight(t)
		h := hashSignature(s)
		buckets[h] = append(buckets[h], t)
	}

	type class struct {
		rep    int32 // smallest member ID: the corridor-ID order key
		weight int32 // summed weight of the members
	}
	var classes []class
	for _, bucket := range buckets {
		// Nearly every bucket is a single class; the quadratic split only
		// runs across genuinely colliding signatures.
		for len(bucket) > 0 {
			rep := bucket[0]
			repSig := sigOf(rep)
			weight := int32(0)
			rest := bucket[:0]
			for _, t := range bucket {
				if slices.Equal(sigOf(t), repSig) {
					weight += u.weights[t]
				} else {
					rest = append(rest, t)
				}
			}
			classes = append(classes, class{rep: rep, weight: weight})
			bucket = rest
		}
	}
	slices.SortFunc(classes, func(a, b class) int { return int(a.rep - b.rep) })

	// Emit corridor-ID lists: walking classes in corridor-ID order appends
	// ascending IDs to every billboard, so the new lists are born sorted.
	weights := make([]int32, len(classes))
	newLists := make([]List, len(u.lists))
	newDeg := make([]int32, len(u.lists))
	for _, cl := range classes {
		for _, b := range sigOf(cl.rep) {
			newDeg[b]++
		}
	}
	for b := range newLists {
		newLists[b] = make(List, 0, newDeg[b])
	}
	for cid, cl := range classes {
		weights[cid] = cl.weight
		for _, b := range sigOf(cl.rep) {
			newLists[b] = append(newLists[b], int32(cid))
		}
	}

	cu, err := NewWeightedUniverse(u.numTrajectories, newLists, weights)
	if err != nil {
		panic(fmt.Sprintf("coverage: Compress produced invalid universe: %v", err))
	}
	cu.compressed = true
	// The compressed substrate must preserve every per-billboard influence
	// exactly; a mismatch means the grouping above is wrong, and silently
	// returning it would corrupt every downstream solve.
	for b := range u.lists {
		if cu.Degree(b) != u.Degree(b) {
			panic(fmt.Sprintf("coverage: Compress changed Degree(%d): %d != %d", b, cu.Degree(b), u.Degree(b)))
		}
	}
	return cu, statsFor(u.numTrajectories, covered, len(classes))
}

// hashSignature is FNV-1a over the signature's billboard IDs.
func hashSignature(s []int32) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range s {
		v := uint32(b)
		for i := 0; i < 4; i++ {
			h ^= uint64(v & 0xff)
			h *= prime64
			v >>= 8
		}
	}
	return h
}
