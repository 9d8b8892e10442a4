package core

import (
	"testing"

	"repro/internal/coverage"
	"repro/internal/rng"
)

// compressedInstance returns inst with its universe corridor-compressed:
// the same market on the weighted substrate.
func compressedInstance(inst *Instance) *Instance {
	cu, _ := coverage.Compress(inst.Universe())
	advs := make([]Advertiser, inst.NumAdvertisers())
	for i := range advs {
		advs[i] = inst.Advertiser(i)
	}
	return MustInstance(cu, advs, inst.Gamma())
}

// gainVectorInstance returns the small instance a gain-vector program runs
// on: unweighted, or the same universe corridor-compressed so that IDs carry
// weights above 1.
func gainVectorInstance(seed uint64, weighted bool) *Instance {
	inst := randomInstance(rng.New(seed), 60, 24, 14, 3, 1.0, 0.5)
	if weighted {
		return compressedInstance(inst)
	}
	return inst
}

// pickBillboard returns the k-th billboard (mod the match count) for which
// keep holds, or -1 if none does.
func pickBillboard(p *Plan, k int, keep func(b int) bool) int {
	var match []int
	for b := range p.owner {
		if keep(b) {
			match = append(match, b)
		}
	}
	if len(match) == 0 {
		return -1
	}
	return match[k%len(match)]
}

// gainVectorStep applies one plan operation chosen by op, with x and y
// picking the advertisers and billboards it touches. It returns the plan to
// continue on (a clone, for the clone op) and the updated snapshot.
func gainVectorStep(p, snap *Plan, op, x, y byte) (*Plan, *Plan) {
	n := p.inst.NumAdvertisers()
	i, j := int(x)%n, int(y)%n
	owned := func(b int) bool { return p.owner[b] != Unassigned }
	free := func(b int) bool { return p.owner[b] == Unassigned }
	switch op % 9 {
	case 0, 1: // a greedy selection: builds or reads i's heap and vector
		if b, ok := bestBillboardFor(p, i); ok {
			p.Assign(b, i)
		}
	case 2:
		if b := pickBillboard(p, int(y), free); b >= 0 {
			p.Assign(b, i)
		}
	case 3:
		if b := pickBillboard(p, int(y), owned); b >= 0 {
			p.Release(b)
		}
	case 4:
		p.ReleaseAll(i)
	case 5:
		out := pickBillboard(p, int(x), owned)
		in := pickBillboard(p, int(y), free)
		if out >= 0 && in >= 0 {
			p.Replace(out, in)
		}
	case 6:
		bi := pickBillboard(p, int(x), owned)
		if bi >= 0 {
			bj := pickBillboard(p, int(y), func(b int) bool { return owned(b) && p.owner[b] != p.owner[bi] })
			if bj >= 0 {
				p.ExchangeBillboards(bi, bj)
			}
		}
	case 7:
		p.ExchangeSets(i, j)
	case 8: // CopyFrom a snapshot, or take one, or continue on a clone
		switch {
		case snap != nil && x%2 == 0:
			p.CopyFrom(snap)
			snap = nil
		case snap == nil:
			snap = p.Clone()
		default:
			p = p.Clone()
		}
	}
	return p, snap
}

// checkGainVectors asserts that every live gain vector of p is exact: it
// equals Counter.Gain(b) for every billboard b outside its advertiser's
// set.
func checkGainVectors(t testing.TB, p *Plan, step int) {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
	if p.cache == nil {
		return
	}
	for i, c := range p.cache.adv {
		if c == nil {
			continue
		}
		ctr := p.counters[i]
		for b := range p.owner {
			if ctr.Has(b) {
				continue
			}
			if want := ctr.Gain(b); c.gain[b] != want {
				t.Fatalf("step %d: advertiser %d gain[%d] = %d, Counter.Gain = %d", step, i, b, c.gain[b], want)
			}
		}
	}
}

// runGainVectorProgram replays prog (op, x, y triples) on a fresh plan
// under the CELF engine, checking every live vector after each step.
func runGainVectorProgram(t testing.TB, inst *Instance, prog []byte) {
	withCELF(func() {
		p := NewPlan(inst)
		var snap *Plan
		for s := 0; s+2 < len(prog); s += 3 {
			p, snap = gainVectorStep(p, snap, prog[s], prog[s+1], prog[s+2])
			checkGainVectors(t, p, s/3)
		}
	})
}

// TestGainVectorMatchesCounter drives random sequences of every plan
// mutation (greedy selections, Assign, Release, ReleaseAll, Replace,
// ExchangeBillboards, ExchangeSets, CopyFrom, Clone) and requires each live
// gain vector to equal the counter's exact marginal gain after every step,
// on unweighted and corridor-weighted universes.
func TestGainVectorMatchesCounter(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		for seed := uint64(1); seed <= 6; seed++ {
			inst := gainVectorInstance(seed, weighted)
			if weighted && !hasMergedID(inst.Universe()) {
				t.Fatalf("seed %d: compression merged no trajectories", seed)
			}
			r := rng.New(100 + seed)
			prog := make([]byte, 3*400)
			for k := range prog {
				prog[k] = byte(r.Intn(256))
			}
			runGainVectorProgram(t, inst, prog)
		}
	}
}

// hasMergedID reports whether some coverage ID of u carries a weight above
// 1, so that weighted gains differ from unweighted ones.
func hasMergedID(u *coverage.Universe) bool {
	for id := int32(0); int(id) < u.NumIDs(); id++ {
		if u.Weight(id) > 1 {
			return true
		}
	}
	return false
}

// FuzzGainVector runs arbitrary operation programs through the same
// exactness check. The first byte selects the instance seed and substrate.
func FuzzGainVector(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 1, 2, 3, 0, 0})
	f.Add([]byte{1, 0, 1, 0, 7, 0, 1, 1, 0, 2, 4, 2, 9, 0, 0, 6, 3, 5})
	f.Add([]byte{3, 0, 2, 0, 8, 0, 0, 1, 1, 5, 4, 7, 8, 0, 0, 0, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		inst := gainVectorInstance(uint64(data[0]%4), data[0]&4 != 0)
		runGainVectorProgram(t, inst, data[1:])
	})
}
