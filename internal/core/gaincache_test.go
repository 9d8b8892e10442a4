package core

import (
	"testing"

	"repro/internal/coverage"
	"repro/internal/rng"
)

// withScanReference runs f with the lazy-greedy cache forced off,
// restoring the mode afterwards. Tests use it to obtain the reference
// full-scan behavior.
func withScanReference(f func()) {
	prev := celfMode
	celfMode = celfForceOff
	defer func() { celfMode = prev }()
	f()
}

// withCELF runs f with the lazy-greedy cache forced on (the auto-mode size
// threshold would route the small test instances to the scan).
func withCELF(f func()) {
	prev := celfMode
	celfMode = celfForceOn
	defer func() { celfMode = prev }()
	f()
}

// TestGainCacheMatchesScanAcrossAlgorithms: all four methods must return
// plans identical (sets, regret) to the reference full-scan implementation
// on seeded random instances spanning the workload space, including the
// degenerate γ=0 and γ=1 corners where greedy keys tie en masse.
func TestGainCacheMatchesScanAcrossAlgorithms(t *testing.T) {
	r := rng.New(4242)
	for trial := 0; trial < 12; trial++ {
		alpha := r.Range(0.3, 2.0)
		gamma := []float64{0, 1, r.Range(0, 1)}[trial%3]
		nAdv := 2 + r.Intn(6)
		inst := randomInstance(r, 150+r.Intn(250), 10+r.Intn(30), 1+r.Intn(25), nAdv, alpha, gamma)
		opts := LocalSearchOptions{Restarts: 2, Seed: uint64(trial)}
		algs := []Algorithm{
			GOrderAlgorithm{},
			GGlobalAlgorithm{},
			ALSAlgorithm{Opts: opts},
			BLSAlgorithm{Opts: opts},
		}
		for _, alg := range algs {
			var want *Plan
			withScanReference(func() { want = solve(alg, inst) })
			var got *Plan
			withCELF(func() { got = solve(alg, inst) })
			if err := got.Validate(); err != nil {
				t.Fatalf("trial %d %s: %v", trial, alg.Name(), err)
			}
			if got.TotalRegret() != want.TotalRegret() {
				t.Fatalf("trial %d %s: regret %v (cache) != %v (scan)",
					trial, alg.Name(), got.TotalRegret(), want.TotalRegret())
			}
			var sg, sw []int
			for i := 0; i < inst.NumAdvertisers(); i++ {
				sg, sw = got.Set(i, sg[:0]), want.Set(i, sw[:0])
				if len(sg) != len(sw) {
					t.Fatalf("trial %d %s adv %d: |S| %d != %d", trial, alg.Name(), i, len(sg), len(sw))
				}
				for k := range sg {
					if sg[k] != sw[k] {
						t.Fatalf("trial %d %s adv %d: sets differ %v vs %v",
							trial, alg.Name(), i, sg, sw)
					}
				}
			}
		}
	}
}

// TestGainCacheReducesEvals: the point of the CELF heap — the greedy must
// reach the identical plan with strictly fewer marginal evaluations than
// the full scan on a non-trivial instance.
func TestGainCacheReducesEvals(t *testing.T) {
	inst := randomInstance(rng.New(31), 500, 60, 30, 6, 1.0, 0.5)
	var scanEvals int64
	withScanReference(func() { scanEvals = GGlobal(inst).Evals() })
	var cacheEvals int64
	withCELF(func() { cacheEvals = GGlobal(inst).Evals() })
	if cacheEvals >= scanEvals {
		t.Fatalf("cache evals %d not below scan evals %d", cacheEvals, scanEvals)
	}
	t.Logf("G-Global marginal evals: scan=%d cache=%d (%.1f%%)",
		scanEvals, cacheEvals, 100*float64(cacheEvals)/float64(scanEvals))
}

// TestGainCacheInvalidationOnRelease: after a release shrinks a set, the
// rebuilt heap must still select exactly what the scan selects — including
// re-offering the released billboard to every advertiser.
func TestGainCacheInvalidationOnRelease(t *testing.T) {
	u := coverage.MustUniverse(12, []coverage.List{
		{0, 1, 2, 3}, {4, 5, 6}, {7, 8}, {9, 10, 11}, {0, 4, 7},
	})
	inst := MustInstance(u, []Advertiser{
		{Demand: 6, Payment: 10},
		{Demand: 4, Payment: 8},
	}, 0.5)
	p := NewPlan(inst)
	// Warm both advertisers' heaps, then mutate through every move kind.
	withCELF(func() {
		if b, ok := bestBillboardFor(p, 0); ok {
			p.Assign(b, 0)
		}
		if b, ok := bestBillboardFor(p, 1); ok {
			p.Assign(b, 1)
		}
		p.ExchangeSets(0, 1)
		if b, ok := bestBillboardFor(p, 0); ok {
			p.Assign(b, 0)
		}
		p.ReleaseAll(0)
	})
	// After invalidation, selection must agree with the scan exactly.
	for i := 0; i < 2; i++ {
		gotB, gotOK := bestBillboardCELF(p, i)
		wantB, wantOK := bestBillboardScan(p, i)
		if gotB != wantB || gotOK != wantOK {
			t.Fatalf("advertiser %d: cache picked (%d,%v), scan picked (%d,%v)",
				i, gotB, gotOK, wantB, wantOK)
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestGainCacheStatsMatchRecount drives a deterministic selection sequence
// and checks the CacheStats counters against a brute-force recount of the
// eligible candidates before every selection:
//
//   - scan mode: Misses = Σ eligible (every candidate is exactly
//     evaluated), Hits = 0, Rescans = number of selection calls;
//   - CELF mode: same selections, and Hits + Misses = the scan's Misses —
//     every candidate the CELF bound skipped is a Hit, every one it popped
//     and evaluated is a Miss — with Rescans = 0 (no fallback under k=1).
func TestGainCacheStatsMatchRecount(t *testing.T) {
	inst := randomInstance(rng.New(909), 300, 30, 20, 5, 1.0, 0.5)
	u := inst.Universe()

	// drive performs greedy fills for each advertiser in turn, returning
	// the selection sequence and the brute-force eligible recount.
	drive := func(p *Plan) (picks []int, eligibleTotal int64, calls int64) {
		for i := 0; i < inst.NumAdvertisers(); i++ {
			for !p.Satisfied(i) {
				var eligible int64
				for b := 0; b < u.NumBillboards(); b++ {
					if p.Owner(b) == Unassigned && u.Degree(b) > 0 {
						eligible++
					}
				}
				b, ok := bestBillboardFor(p, i)
				calls++
				eligibleTotal += eligible
				if !ok {
					break
				}
				picks = append(picks, b)
				p.Assign(b, i)
			}
		}
		return picks, eligibleTotal, calls
	}

	var scanPicks []int
	var scanStats CacheStats
	var recount, calls int64
	withScanReference(func() {
		p := NewPlan(inst)
		scanPicks, recount, calls = drive(p)
		scanStats = p.CacheStats()
	})
	if scanStats.Hits != 0 {
		t.Errorf("scan mode recorded %d hits, want 0", scanStats.Hits)
	}
	if scanStats.Misses != recount {
		t.Errorf("scan misses %d != brute-force eligible recount %d", scanStats.Misses, recount)
	}
	if scanStats.Rescans != calls {
		t.Errorf("scan rescans %d != selection calls %d", scanStats.Rescans, calls)
	}

	var celfPicks []int
	var celfStats CacheStats
	withCELF(func() {
		p := NewPlan(inst)
		celfPicks, _, _ = drive(p)
		celfStats = p.CacheStats()
	})
	if len(celfPicks) != len(scanPicks) {
		t.Fatalf("CELF made %d picks, scan %d", len(celfPicks), len(scanPicks))
	}
	for k := range celfPicks {
		if celfPicks[k] != scanPicks[k] {
			t.Fatalf("pick %d: CELF chose %d, scan chose %d", k, celfPicks[k], scanPicks[k])
		}
	}
	if celfStats.Rescans != 0 {
		t.Errorf("CELF mode recorded %d rescans, want 0", celfStats.Rescans)
	}
	if got := celfStats.Hits + celfStats.Misses; got != scanStats.Misses {
		t.Errorf("CELF hits+misses %d != scan misses %d (the candidate sets must partition)",
			got, scanStats.Misses)
	}
	if celfStats.Hits == 0 {
		t.Error("CELF recorded no hits; the bound never skipped a candidate")
	}
	t.Logf("candidates: scan evaluated %d, CELF evaluated %d + skipped %d",
		scanStats.Misses, celfStats.Misses, celfStats.Hits)
}

// TestGainCacheStatsAcrossAlgorithms: the partition invariant — CELF
// hits+misses equals the scan's exact-evaluation count — must hold for the
// full algorithms too, since both modes provably make identical selections.
func TestGainCacheStatsAcrossAlgorithms(t *testing.T) {
	inst := randomInstance(rng.New(313), 250, 28, 22, 5, 1.2, 0.5)
	opts := LocalSearchOptions{Restarts: 2, Seed: 7}
	algs := []Algorithm{
		GOrderAlgorithm{},
		GGlobalAlgorithm{},
		ALSAlgorithm{Opts: opts},
		BLSAlgorithm{Opts: opts},
	}
	for _, alg := range algs {
		var scan, celf CacheStats
		withScanReference(func() { scan = solve(alg, inst).CacheStats() })
		withCELF(func() { celf = solve(alg, inst).CacheStats() })
		if scan.Hits != 0 {
			t.Errorf("%s: scan mode recorded %d hits", alg.Name(), scan.Hits)
		}
		if celf.Rescans != 0 {
			t.Errorf("%s: CELF mode recorded %d rescans", alg.Name(), celf.Rescans)
		}
		if celf.Hits+celf.Misses != scan.Misses {
			t.Errorf("%s: CELF hits+misses %d != scan misses %d",
				alg.Name(), celf.Hits+celf.Misses, scan.Misses)
		}
	}
}

// TestGainCacheImpressionThresholdFallback: under the k>1 impression-count
// measure gains are not submodular, so bestBillboardFor must use the scan
// (and still produce valid plans).
func TestGainCacheImpressionThresholdFallback(t *testing.T) {
	u := coverage.MustUniverse(8, []coverage.List{
		{0, 1, 2}, {0, 1, 3}, {2, 3, 4}, {5, 6, 7},
	})
	inst, err := NewInstanceWithImpressions(u, []Advertiser{{Demand: 3, Payment: 6}}, 0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	var p *Plan
	withCELF(func() { p = GGlobal(inst) })
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.cache != nil {
		t.Fatal("gain cache built under impression threshold k=2")
	}
}
