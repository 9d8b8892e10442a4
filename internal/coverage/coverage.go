// Package coverage represents which trajectories each billboard influences
// and evaluates the influence I(S) of billboard sets, both from scratch and
// incrementally.
//
// Under the paper's influence model (§7.1.2) a billboard o influences a
// trajectory t iff some point of t lies within λ meters of o, and the
// influence of a set S is the number of distinct trajectories influenced by
// at least one member:
//
//	I(S) = Σ_t [1 − Π_{o∈S}(1 − I(o,t))] = |⋃_{o∈S} cover(o)|
//
// because I(o,t) ∈ {0,1}. All four MROAM algorithms spend nearly all their
// time asking "what does adding/removing/swapping one billboard do to I(S_i)?"
// The Counter type answers those queries in O(deg(o)) by maintaining, for one
// advertiser's set, a per-ID multiset count of how many assigned billboards
// cover it.
//
// I(S) counts how many trajectories a set covers, never which, so every
// universe is weighted: a coverage ID stands for weight(id) ≥ 1 raw
// trajectories with identical coverage. An uncompressed universe is the
// unit-weight case, and Compress (corridor.go) merges identical-coverage
// IDs into heavier ones. There is one substrate and one kernel loop per
// Counter operation.
package coverage

import (
	"fmt"
	"slices"
	"sort"
)

// List is the set of coverage IDs covered by one billboard, sorted
// ascending with no duplicates. In an uncompressed universe the IDs are
// trajectory IDs; in a corridor-compressed universe (see Compress) they are
// corridor IDs.
type List []int32

// NewList sorts and deduplicates ids into a valid List. The input slice may
// be reused as backing storage. (slices.Sort, not sort.Slice: the radix-ish
// pdqsort specialization for ordered element types avoids the interface
// indirection per comparison — this is the hottest sort in dataset builds.)
func NewList(ids []int32) List {
	slices.Sort(ids)
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			out = append(out, id)
		}
	}
	return List(out)
}

// Contains reports whether the list covers trajectory id, by binary search.
func (l List) Contains(id int32) bool {
	i := sort.Search(len(l), func(i int) bool { return l[i] >= id })
	return i < len(l) && l[i] == id
}

// Universe holds the coverage lists of every billboard in a dataset together
// with the trajectory count. It is immutable after construction and shared by
// all Counters, algorithms and experiments that operate on the dataset.
//
// Coverage IDs carry weights: weights[id] counts the raw trajectories behind
// each ID (1 everywhere in an uncompressed universe, the corridor size after
// Compress). Every influence quantity (Degree, MaxDegree, TotalSupply,
// UnionCount, Counter results) is a weighted sum and so expressed in raw
// trajectories, which makes the answers bit-identical across compression by
// construction: algorithms never need to know which form they run on.
type Universe struct {
	numTrajectories int // raw trajectory total |T|, the paper's universe size
	lists           []List
	weights         []int32 // weights[id] ≥ 1, raw trajectories per ID
	degrees         []int   // weighted Degree per billboard
	maxDegree       int
	totalSupply     int64
	compressed      bool // produced by Compress: no two IDs share a signature
}

// NewUniverse constructs an uncompressed Universe over numTrajectories
// trajectories with the given per-billboard coverage lists: every
// trajectory is its own coverage ID of weight 1. It returns an error if any
// list is unsorted, contains duplicates, or references a trajectory out of
// range.
func NewUniverse(numTrajectories int, lists []List) (*Universe, error) {
	if numTrajectories < 0 {
		return nil, fmt.Errorf("coverage: negative trajectory count %d", numTrajectories)
	}
	weights := make([]int32, numTrajectories)
	for i := range weights {
		weights[i] = 1
	}
	return NewWeightedUniverse(numTrajectories, lists, weights)
}

// NewWeightedUniverse constructs a Universe whose lists hold coverage IDs in
// [0, len(weights)), and weights[id] is the number of raw trajectories
// behind ID id. numTrajectories remains the raw total (weights need not sum
// to it — trajectories covered by no billboard need no ID). Influence
// accessors return weighted values.
func NewWeightedUniverse(numTrajectories int, lists []List, weights []int32) (*Universe, error) {
	if numTrajectories < 0 {
		return nil, fmt.Errorf("coverage: negative trajectory count %d", numTrajectories)
	}
	var sum int64
	for id, w := range weights {
		if w < 1 {
			return nil, fmt.Errorf("coverage: ID %d has weight %d < 1", id, w)
		}
		sum += int64(w)
	}
	if sum > int64(numTrajectories) {
		return nil, fmt.Errorf("coverage: weights sum to %d, universe has %d trajectories", sum, numTrajectories)
	}
	u := &Universe{
		numTrajectories: numTrajectories,
		lists:           lists,
		weights:         weights,
		degrees:         make([]int, len(lists)),
	}
	// One pass per list both validates it (sorted, duplicate-free, IDs in
	// range) and sums its weighted degree.
	for b, l := range lists {
		d := 0
		for i, id := range l {
			if id < 0 || int(id) >= len(weights) {
				return nil, fmt.Errorf("coverage: billboard %d covers ID %d, universe has %d", b, id, len(weights))
			}
			if i > 0 && l[i-1] >= id {
				return nil, fmt.Errorf("coverage: billboard %d list unsorted or duplicated at index %d", b, i)
			}
			d += int(weights[id])
		}
		u.degrees[b] = d
		u.maxDegree = max(u.maxDegree, d)
		u.totalSupply += int64(d)
	}
	return u, nil
}

// MustUniverse is NewUniverse that panics on error, for tests and generators
// that construct lists they know to be valid.
func MustUniverse(numTrajectories int, lists []List) *Universe {
	u, err := NewUniverse(numTrajectories, lists)
	if err != nil {
		panic(err)
	}
	return u
}

// NumTrajectories returns the number of raw trajectories in the universe —
// the paper's |T|. Corridor compression never changes this value.
func (u *Universe) NumTrajectories() int { return u.numTrajectories }

// NumIDs returns the size of the coverage ID space: the value to size
// per-ID scratch arrays by. It equals NumTrajectories for an
// uncompressed universe and the corridor count for a compressed one.
func (u *Universe) NumIDs() int { return len(u.weights) }

// Weight returns the number of raw trajectories behind coverage ID id
// (1 for every ID of an uncompressed universe).
func (u *Universe) Weight(id int32) int { return int(u.weights[id]) }

// NumBillboards returns the number of billboards in the universe.
func (u *Universe) NumBillboards() int { return len(u.lists) }

// List returns the coverage list of billboard b. The returned slice must not
// be modified.
func (u *Universe) List(b int) List { return u.lists[b] }

// Degree returns |cover(b)| in raw trajectories — I({b}), the influence of
// the single billboard — regardless of substrate.
func (u *Universe) Degree(b int) int { return u.degrees[b] }

// MaxDegree returns the largest single-billboard influence max_o I({o}),
// precomputed at construction. The lazy-greedy selection uses it to decide
// whether any billboard could cross an advertiser's remaining demand.
func (u *Universe) MaxDegree() int { return u.maxDegree }

// TotalSupply returns I* = Σ_o I({o}), the host's supply as defined for the
// demand-supply ratio α (§7.1.3). Note this sums individual influences and
// intentionally double-counts overlap, exactly as the paper defines I*.
func (u *Universe) TotalSupply() int64 { return u.totalSupply }

// UnionCount returns I(S) = |⋃_{b∈S} cover(b)| in raw trajectories,
// computed from scratch. Counters are faster for incremental work; this is
// the reference evaluator and the right tool for one-shot queries.
func (u *Universe) UnionCount(billboards []int) int { return u.UnionCountK(billboards, 1) }

// Incidence is the inverse of a universe's coverage lists in CSR form: for
// every coverage ID, the billboards covering it. It is immutable once built
// and safe to share between goroutines.
type Incidence struct {
	offsets []int64 // Billboards(id) = bills[offsets[id]:offsets[id+1]]
	bills   []int32
}

// Incidence builds the ID→billboards index of u in O(|U| + Σ_b len(List(b)))
// time and one int32 per list entry plus one int64 per ID of memory.
// Iterating billboards in ascending order fills each row already sorted.
func (u *Universe) Incidence() *Incidence {
	n := len(u.weights)
	x := &Incidence{offsets: make([]int64, n+1)}
	for _, l := range u.lists {
		for _, t := range l {
			x.offsets[t+1]++
		}
	}
	for t := 0; t < n; t++ {
		x.offsets[t+1] += x.offsets[t]
	}
	x.bills = make([]int32, x.offsets[n])
	fill := make([]int64, n)
	copy(fill, x.offsets[:n])
	for b, l := range u.lists {
		for _, t := range l {
			x.bills[fill[t]] = int32(b)
			fill[t]++
		}
	}
	return x
}

// Billboards returns the billboards covering coverage ID id in ascending
// order. The returned slice must not be modified.
func (x *Incidence) Billboards(id int32) []int32 {
	return x.bills[x.offsets[id]:x.offsets[id+1]]
}

// Counter incrementally tracks I(S) for one mutable billboard set S. Adding
// or removing a billboard costs O(deg(b)); marginal-gain/loss queries cost
// the same without mutating the set.
//
// Every loop weighs the IDs it counts, so the same code serves the
// unit-weight and corridor-compressed forms of a universe.
//
// A Counter can also evaluate the impression-count influence measure of
// Zhang et al., KDD 2019 ("Optimizing Impression Counts for Outdoor
// Advertising"), which the paper cites as an orthogonal alternative (§2.2,
// §3.1): with threshold k, a trajectory counts as influenced only after it
// meets at least k billboards of the set. NewCounter uses k = 1 (the
// paper's union coverage); NewCounterWithThreshold selects a larger k.
type Counter struct {
	u       *Universe
	k       int32   // impression threshold; 1 = plain union coverage
	counts  []int32 // counts[id] = #{b ∈ S : b covers id}
	w       []int32 // the universe's weights
	covered int     // Σ_{id : counts[id] >= k} weight(id); this is I_k(S)
	member  []bool  // member[b] = b ∈ S
	size    int     // |S|
}

// NewCounter returns an empty Counter over the universe using the paper's
// union-coverage influence (impression threshold 1).
func NewCounter(u *Universe) *Counter {
	return NewCounterWithThreshold(u, 1)
}

// NewCounterWithThreshold returns an empty Counter requiring k impressions
// before a trajectory counts as influenced. It panics if k < 1.
//
// On a corridor-compressed universe the threshold applies per corridor,
// which is exactly the per-trajectory semantics: every trajectory in a
// corridor is covered by the same billboards, so their impression counts
// are equal at all times.
func NewCounterWithThreshold(u *Universe, k int) *Counter {
	if k < 1 {
		panic(fmt.Sprintf("coverage: impression threshold %d < 1", k))
	}
	return &Counter{
		u:      u,
		k:      int32(k),
		counts: make([]int32, len(u.weights)),
		w:      u.weights,
		member: make([]bool, len(u.lists)),
	}
}

// Threshold returns the impression threshold k.
func (c *Counter) Threshold() int { return int(c.k) }

// Covered returns I_k(S): with the default threshold 1, the number of
// distinct trajectories covered.
func (c *Counter) Covered() int { return c.covered }

// Count returns how many billboards of the set cover coverage ID id.
func (c *Counter) Count(id int32) int { return int(c.counts[id]) }

// Size returns |S|, the number of billboards in the set.
func (c *Counter) Size() int { return c.size }

// Has reports whether billboard b is in the set.
func (c *Counter) Has(b int) bool { return c.member[b] }

// Members appends the billboards currently in the set to dst in ascending
// order and returns the extended slice.
func (c *Counter) Members(dst []int) []int {
	for b, in := range c.member {
		if in {
			dst = append(dst, b)
		}
	}
	return dst
}

// Add inserts billboard b into the set. It panics if b is already a member.
func (c *Counter) Add(b int) {
	if c.member[b] {
		panic(fmt.Sprintf("coverage: Add(%d): already a member", b))
	}
	c.member[b] = true
	c.size++
	for _, t := range c.u.lists[b] {
		c.counts[t]++
		if c.counts[t] == c.k {
			c.covered += int(c.w[t])
		}
	}
}

// Remove deletes billboard b from the set. It panics if b is not a member.
func (c *Counter) Remove(b int) {
	if !c.member[b] {
		panic(fmt.Sprintf("coverage: Remove(%d): not a member", b))
	}
	c.member[b] = false
	c.size--
	for _, t := range c.u.lists[b] {
		if c.counts[t] == c.k {
			c.covered -= int(c.w[t])
		}
		c.counts[t]--
	}
}

// Gain returns I(S ∪ {b}) − I(S): how many new trajectories b would cover.
// b must not be a member (the gain of a member is trivially 0, and asking
// for it almost always indicates an algorithmic bug, so it panics).
func (c *Counter) Gain(b int) int {
	if c.member[b] {
		panic(fmt.Sprintf("coverage: Gain(%d): already a member", b))
	}
	gain := 0
	for _, t := range c.u.lists[b] {
		if c.counts[t] == c.k-1 {
			gain += int(c.w[t])
		}
	}
	return gain
}

// Loss returns I(S) − I(S \ {b}): how many trajectories only b covers.
// It panics if b is not a member.
func (c *Counter) Loss(b int) int {
	if !c.member[b] {
		panic(fmt.Sprintf("coverage: Loss(%d): not a member", b))
	}
	loss := 0
	for _, t := range c.u.lists[b] {
		if c.counts[t] == c.k {
			loss += int(c.w[t])
		}
	}
	return loss
}

// SwapDelta returns I((S \ {out}) ∪ {in}) − I(S) without mutating the set.
// out must be a member and in must not be. The two sorted coverage lists
// are walked in a single linear merge, so the cost is
// O(deg(out) + deg(in)) — IDs covered by both billboards keep their
// impression count and are skipped.
func (c *Counter) SwapDelta(out, in int) int {
	if !c.member[out] {
		panic(fmt.Sprintf("coverage: SwapDelta(out=%d): not a member", out))
	}
	if c.member[in] {
		panic(fmt.Sprintf("coverage: SwapDelta(in=%d): already a member", in))
	}
	outList := c.u.lists[out]
	inList := c.u.lists[in]
	delta := 0
	i, j := 0, 0
	for i < len(outList) || j < len(inList) {
		switch {
		case j == len(inList) || (i < len(outList) && outList[i] < inList[j]):
			// Covered by out only: loses an impression.
			if t := outList[i]; c.counts[t] == c.k {
				delta -= int(c.w[t])
			}
			i++
		case i == len(outList) || inList[j] < outList[i]:
			// Covered by in only: gains an impression.
			if t := inList[j]; c.counts[t] == c.k-1 {
				delta += int(c.w[t])
			}
			j++
		default:
			// Covered by both: impression count unchanged.
			i++
			j++
		}
	}
	return delta
}

// Reset empties the set in O(Σ deg(member)).
func (c *Counter) Reset() {
	for b, in := range c.member {
		if in {
			c.Remove(b)
		}
	}
}

// CopyFrom overwrites this counter's state with src's, reusing the existing
// storage. Both counters must share the same universe and threshold; this
// is the allocation-free alternative to Clone for scratch counters reused
// across local-search sweeps.
func (c *Counter) CopyFrom(src *Counter) {
	if c.u != src.u || c.k != src.k {
		panic("coverage: CopyFrom across universes or thresholds")
	}
	if c == src {
		return
	}
	copy(c.counts, src.counts)
	copy(c.member, src.member)
	c.covered = src.covered
	c.size = src.size
}

// Clone returns an independent copy of the counter state.
func (c *Counter) Clone() *Counter {
	n := &Counter{
		u:       c.u,
		k:       c.k,
		counts:  make([]int32, len(c.counts)),
		w:       c.w,
		covered: c.covered,
		member:  make([]bool, len(c.member)),
		size:    c.size,
	}
	copy(n.counts, c.counts)
	copy(n.member, c.member)
	return n
}

// Universe returns the universe this counter operates over.
func (c *Counter) Universe() *Universe { return c.u }
