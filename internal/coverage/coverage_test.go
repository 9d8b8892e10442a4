package coverage

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func mustU(t *testing.T, n int, lists []List) *Universe {
	t.Helper()
	u, err := NewUniverse(n, lists)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestNewListSortsAndDedups(t *testing.T) {
	l := NewList([]int32{5, 1, 3, 1, 5, 2})
	want := []int32{1, 2, 3, 5}
	if len(l) != len(want) {
		t.Fatalf("NewList = %v, want %v", l, want)
	}
	for i := range want {
		if l[i] != want[i] {
			t.Fatalf("NewList = %v, want %v", l, want)
		}
	}
}

func TestListContains(t *testing.T) {
	l := List{1, 3, 7, 100}
	for _, id := range []int32{1, 3, 7, 100} {
		if !l.Contains(id) {
			t.Errorf("Contains(%d) = false", id)
		}
	}
	for _, id := range []int32{0, 2, 8, 99, 101} {
		if l.Contains(id) {
			t.Errorf("Contains(%d) = true", id)
		}
	}
	if (List{}).Contains(0) {
		t.Error("empty list Contains(0) = true")
	}
}

func TestNewUniverseValidation(t *testing.T) {
	if _, err := NewUniverse(-1, nil); err == nil {
		t.Error("negative trajectory count accepted")
	}
	if _, err := NewUniverse(5, []List{{0, 5}}); err == nil {
		t.Error("out-of-range trajectory accepted")
	}
	if _, err := NewUniverse(5, []List{{-1}}); err == nil {
		t.Error("negative trajectory accepted")
	}
	if _, err := NewUniverse(5, []List{{2, 1}}); err == nil {
		t.Error("unsorted list accepted")
	}
	if _, err := NewUniverse(5, []List{{1, 1}}); err == nil {
		t.Error("duplicate entry accepted")
	}
	if _, err := NewUniverse(5, []List{{0, 1}, {}, {4}}); err != nil {
		t.Errorf("valid universe rejected: %v", err)
	}
}

func TestUniverseBasics(t *testing.T) {
	u := mustU(t, 10, []List{{0, 1, 2}, {2, 3}, {}})
	if u.NumTrajectories() != 10 || u.NumBillboards() != 3 {
		t.Fatalf("dims wrong: %d, %d", u.NumTrajectories(), u.NumBillboards())
	}
	if u.Degree(0) != 3 || u.Degree(1) != 2 || u.Degree(2) != 0 {
		t.Error("Degree wrong")
	}
	if u.TotalSupply() != 5 {
		t.Errorf("TotalSupply = %d, want 5", u.TotalSupply())
	}
	if got := u.UnionCount([]int{0, 1}); got != 4 {
		t.Errorf("UnionCount = %d, want 4 (overlap at 2)", got)
	}
	if got := u.UnionCount(nil); got != 0 {
		t.Errorf("UnionCount(nil) = %d", got)
	}
}

func TestCounterAddRemove(t *testing.T) {
	u := mustU(t, 6, []List{{0, 1}, {1, 2}, {3, 4, 5}})
	c := NewCounter(u)
	if c.Covered() != 0 || c.Size() != 0 {
		t.Fatal("fresh counter not empty")
	}
	c.Add(0)
	if c.Covered() != 2 {
		t.Errorf("after Add(0): covered = %d, want 2", c.Covered())
	}
	c.Add(1)
	if c.Covered() != 3 {
		t.Errorf("after Add(1): covered = %d, want 3 (overlap at t=1)", c.Covered())
	}
	if !c.Has(0) || !c.Has(1) || c.Has(2) {
		t.Error("membership wrong")
	}
	if got := c.Members(nil); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("Members = %v", got)
	}
	c.Remove(0)
	if c.Covered() != 2 {
		t.Errorf("after Remove(0): covered = %d, want 2", c.Covered())
	}
	c.Remove(1)
	if c.Covered() != 0 || c.Size() != 0 {
		t.Error("counter not empty after removing all")
	}
}

func TestCounterGainLoss(t *testing.T) {
	u := mustU(t, 6, []List{{0, 1}, {1, 2}, {3, 4, 5}, {}})
	c := NewCounter(u)
	if g := c.Gain(0); g != 2 {
		t.Errorf("Gain(0) on empty = %d, want 2", g)
	}
	c.Add(0)
	if g := c.Gain(1); g != 1 {
		t.Errorf("Gain(1) = %d, want 1", g)
	}
	if g := c.Gain(2); g != 3 {
		t.Errorf("Gain(2) = %d, want 3", g)
	}
	if g := c.Gain(3); g != 0 {
		t.Errorf("Gain(3) = %d, want 0 (empty billboard)", g)
	}
	c.Add(1)
	if l := c.Loss(0); l != 1 {
		t.Errorf("Loss(0) = %d, want 1 (t=0 uniquely covered)", l)
	}
	if l := c.Loss(1); l != 1 {
		t.Errorf("Loss(1) = %d, want 1 (t=2 uniquely covered)", l)
	}
}

func TestCounterPanics(t *testing.T) {
	u := mustU(t, 3, []List{{0}, {1}})
	c := NewCounter(u)
	c.Add(0)
	for name, f := range map[string]func(){
		"double Add":          func() { c.Add(0) },
		"Remove non-member":   func() { c.Remove(1) },
		"Gain of member":      func() { c.Gain(0) },
		"Loss of non-member":  func() { c.Loss(1) },
		"SwapDelta bad out":   func() { c.SwapDelta(1, 0) },
		"SwapDelta member in": func() { c.SwapDelta(0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestSwapDeltaHandsOff(t *testing.T) {
	// Example 3 of the paper (x = 5): o1 covers {t1..t4}, o2 covers
	// {t1..t3, t5}, o3 covers {t5, t6}. With S = {o1, o2}, swapping o1 out
	// for o3 keeps coverage at 5 trajectories... compute by hand:
	// S = {o1,o2} covers {1,2,3,4,5} (5). (S\{o1})∪{o3} = {o2,o3} covers
	// {1,2,3,5,6} (5). Delta = 0.
	u := mustU(t, 7, []List{
		{1, 2, 3, 4},
		{1, 2, 3, 5},
		{5, 6},
	})
	c := NewCounter(u)
	c.Add(0)
	c.Add(1)
	if got := c.SwapDelta(0, 2); got != 0 {
		t.Errorf("SwapDelta(0,2) = %d, want 0", got)
	}
	// Swapping o2 out for o3: {o1,o3} covers {1,2,3,4,5,6} (6): delta +1.
	if got := c.SwapDelta(1, 2); got != 1 {
		t.Errorf("SwapDelta(1,2) = %d, want 1", got)
	}
}

// randomUniverse builds a universe with random coverage lists for property
// tests.
func randomUniverse(r *rng.RNG, nTraj, nBB, maxDeg int) *Universe {
	lists := make([]List, nBB)
	for b := range lists {
		deg := r.Intn(maxDeg + 1)
		ids := make([]int32, 0, deg)
		for i := 0; i < deg; i++ {
			ids = append(ids, int32(r.Intn(nTraj)))
		}
		lists[b] = NewList(ids)
	}
	return MustUniverse(nTraj, lists)
}

func TestCounterMatchesUnionCountRandom(t *testing.T) {
	r := rng.New(123)
	for trial := 0; trial < 30; trial++ {
		u := randomUniverse(r, 200, 30, 40)
		c := NewCounter(u)
		var members []int
		for step := 0; step < 200; step++ {
			b := r.Intn(u.NumBillboards())
			if c.Has(b) {
				// Verify Loss against from-scratch recomputation first.
				withoutB := make([]int, 0, len(members))
				for _, m := range members {
					if m != b {
						withoutB = append(withoutB, m)
					}
				}
				wantLoss := c.Covered() - u.UnionCount(withoutB)
				if got := c.Loss(b); got != wantLoss {
					t.Fatalf("trial %d step %d: Loss(%d) = %d, want %d", trial, step, b, got, wantLoss)
				}
				c.Remove(b)
				members = withoutB
			} else {
				withB := append(append([]int{}, members...), b)
				wantGain := u.UnionCount(withB) - c.Covered()
				if got := c.Gain(b); got != wantGain {
					t.Fatalf("trial %d step %d: Gain(%d) = %d, want %d", trial, step, b, got, wantGain)
				}
				c.Add(b)
				members = withB
			}
			if got, want := c.Covered(), u.UnionCount(members); got != want {
				t.Fatalf("trial %d step %d: covered = %d, want %d", trial, step, got, want)
			}
			if c.Size() != len(members) {
				t.Fatalf("trial %d step %d: size = %d, want %d", trial, step, c.Size(), len(members))
			}
		}
	}
}

func TestSwapDeltaMatchesRecompute(t *testing.T) {
	r := rng.New(321)
	for trial := 0; trial < 20; trial++ {
		u := randomUniverse(r, 150, 20, 30)
		c := NewCounter(u)
		var members []int
		for b := 0; b < u.NumBillboards(); b += 2 {
			c.Add(b)
			members = append(members, b)
		}
		for _, out := range members {
			for in := 1; in < u.NumBillboards(); in += 2 {
				swapped := make([]int, 0, len(members))
				for _, m := range members {
					if m != out {
						swapped = append(swapped, m)
					}
				}
				swapped = append(swapped, in)
				want := u.UnionCount(swapped) - c.Covered()
				if got := c.SwapDelta(out, in); got != want {
					t.Fatalf("trial %d: SwapDelta(%d,%d) = %d, want %d", trial, out, in, got, want)
				}
			}
		}
	}
}

func TestSwapDeltaDoesNotMutate(t *testing.T) {
	u := mustU(t, 5, []List{{0, 1}, {2, 3}, {1, 2}})
	c := NewCounter(u)
	c.Add(0)
	c.Add(1)
	before := c.Covered()
	_ = c.SwapDelta(0, 2)
	if c.Covered() != before || !c.Has(0) || c.Has(2) {
		t.Fatal("SwapDelta mutated the counter")
	}
}

func TestResetAndClone(t *testing.T) {
	u := mustU(t, 5, []List{{0, 1}, {2, 3}})
	c := NewCounter(u)
	c.Add(0)
	c.Add(1)
	cl := c.Clone()
	c.Reset()
	if c.Covered() != 0 || c.Size() != 0 {
		t.Error("Reset did not empty counter")
	}
	if cl.Covered() != 4 || cl.Size() != 2 || !cl.Has(0) {
		t.Error("Clone affected by Reset of original")
	}
	cl.Remove(0)
	if cl.Covered() != 2 {
		t.Error("clone Remove wrong")
	}
}

func TestCounterPropertyGainLossInverse(t *testing.T) {
	// For any membership state and billboard b not in S:
	// after Add(b), Loss(b) must equal the Gain(b) before.
	r := rng.New(555)
	check := func(seed uint16) bool {
		rr := rng.New(uint64(seed))
		u := randomUniverse(r, 100, 10, 20)
		c := NewCounter(u)
		for i := 0; i < 5; i++ {
			b := rr.Intn(u.NumBillboards())
			if !c.Has(b) {
				c.Add(b)
			}
		}
		for b := 0; b < u.NumBillboards(); b++ {
			if c.Has(b) {
				continue
			}
			g := c.Gain(b)
			c.Add(b)
			if c.Loss(b) != g {
				return false
			}
			c.Remove(b)
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// benchSubstrates runs fn as two sub-benchmarks: "raw", a 50k-trajectory
// random universe at unit weights, and "corridor", its corridor compression
// (the substrate every production solve runs on, with shorter lists and
// weights above 1).
func benchSubstrates(b *testing.B, fn func(b *testing.B, u *Universe)) {
	raw := randomUniverse(rng.New(1), 50000, 500, 400)
	corridor, _ := Compress(raw)
	b.Run("raw", func(b *testing.B) { fn(b, raw) })
	b.Run("corridor", func(b *testing.B) { fn(b, corridor) })
}

func BenchmarkCounterAddRemove(b *testing.B) {
	benchSubstrates(b, func(b *testing.B, u *Universe) {
		c := NewCounter(u)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bb := i % u.NumBillboards()
			if c.Has(bb) {
				c.Remove(bb)
			} else {
				c.Add(bb)
			}
		}
	})
}

func BenchmarkCounterGain(b *testing.B) {
	benchSubstrates(b, func(b *testing.B, u *Universe) {
		c := NewCounter(u)
		for i := 0; i < 50; i++ {
			c.Add(i * 7 % u.NumBillboards())
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bb := i % u.NumBillboards()
			if !c.Has(bb) {
				_ = c.Gain(bb)
			}
		}
	})
}

// unionSink keeps BenchmarkUnionCount's result live.
var unionSink int

// BenchmarkUnionCount times a one-shot 50-billboard union on two ID
// spaces: the 50k-ID synthetic case and a paper-scale 1.7M-ID rung (NYC's
// trajectory count), where the dense bitset's size is largest relative to
// the IDs actually covered.
func BenchmarkUnionCount(b *testing.B) {
	for _, bc := range []struct {
		name          string
		nTraj, maxDeg int
	}{
		{"ids=50k", 50000, 400},
		{"ids=1.7M", 1700000, 4000},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := rng.New(1)
			u := randomUniverse(r, bc.nTraj, 500, bc.maxDeg)
			set := make([]int, 50)
			for i := range set {
				set[i] = i * 9 % u.NumBillboards()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				unionSink = u.UnionCount(set)
			}
		})
	}
}

// swapDeltaBinarySearch is the previous SwapDelta implementation (binary
// searching each list for membership in the other), kept as the reference
// for the linear merge walk that replaced it.
func swapDeltaBinarySearch(c *Counter, out, in int) int {
	outList := c.u.lists[out]
	inList := c.u.lists[in]
	delta := 0
	for _, t := range outList {
		if c.counts[t] == c.k && !inList.Contains(t) {
			delta--
		}
	}
	for _, t := range inList {
		if c.counts[t] == c.k-1 && !outList.Contains(t) {
			delta++
		}
	}
	return delta
}

// TestSwapDeltaMergeMatchesBinarySearch: the merge-walk SwapDelta must
// agree with the old binary-search implementation on random universes,
// member sets and swap pairs, for thresholds k=1 and k=2.
func TestSwapDeltaMergeMatchesBinarySearch(t *testing.T) {
	r := rng.New(20240805)
	for trial := 0; trial < 40; trial++ {
		u := randomUniverse(r, 50+r.Intn(300), 4+r.Intn(30), 1+r.Intn(60))
		k := 1 + trial%2
		c := NewCounterWithThreshold(u, k)
		var members []int
		for b := 0; b < u.NumBillboards(); b++ {
			if r.Float64() < 0.4 {
				c.Add(b)
				members = append(members, b)
			}
		}
		if len(members) == 0 || len(members) == u.NumBillboards() {
			continue
		}
		for probe := 0; probe < 20; probe++ {
			out := members[r.Intn(len(members))]
			in := r.Intn(u.NumBillboards())
			if c.Has(in) {
				continue
			}
			got := c.SwapDelta(out, in)
			want := swapDeltaBinarySearch(c, out, in)
			if got != want {
				t.Fatalf("trial %d k=%d swap(%d,%d): merge %d, binary search %d",
					trial, k, out, in, got, want)
			}
		}
	}
}

func BenchmarkSwapDelta(b *testing.B) {
	benchSubstrates(b, func(b *testing.B, u *Universe) {
		c := NewCounter(u)
		for i := 0; i < 50; i++ {
			c.Add(i * 7 % u.NumBillboards())
		}
		out := 0 * 7 % u.NumBillboards()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			in := i % u.NumBillboards()
			if !c.Has(in) {
				_ = c.SwapDelta(out, in)
			}
		}
	})
}

// BenchmarkNewList measures the coverage-list constructor on the
// mostly-sorted input the spatial join produces (trajectory IDs arrive in
// generation order with local back-references). slices.Sort's pdqsort
// exploits that structure where the old sort.Slice interface path could
// not; see the recorded comparison in DESIGN.md §12.
func BenchmarkNewList(b *testing.B) {
	r := rng.New(1)
	ids := make([]int32, 4096)
	for i := range ids {
		// Nearly sorted with occasional displaced entries and duplicates,
		// like a billboard's hits across generation-ordered chunks.
		ids[i] = int32(i) + int32(r.Intn(8)) - 4
		if ids[i] < 0 {
			ids[i] = 0
		}
	}
	scratch := make([]int32, len(ids))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, ids)
		_ = NewList(scratch)
	}
}
