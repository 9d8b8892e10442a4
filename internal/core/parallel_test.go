package core

import (
	"testing"

	"repro/internal/rng"
)

// comparePlans fails the test unless a and b have identical per-advertiser
// billboard sets, identical total regret, and identical evals counters.
func comparePlans(t *testing.T, label string, a, b *Plan) {
	t.Helper()
	if a.TotalRegret() != b.TotalRegret() {
		t.Fatalf("%s: regret %v != %v", label, a.TotalRegret(), b.TotalRegret())
	}
	if a.Evals() != b.Evals() {
		t.Fatalf("%s: evals %d != %d", label, a.Evals(), b.Evals())
	}
	n := a.Instance().NumAdvertisers()
	var sa, sb []int
	for i := 0; i < n; i++ {
		sa, sb = a.Set(i, sa[:0]), b.Set(i, sb[:0])
		if len(sa) != len(sb) {
			t.Fatalf("%s: advertiser %d set size %d != %d", label, i, len(sa), len(sb))
		}
		for k := range sa {
			if sa[k] != sb[k] {
				t.Fatalf("%s: advertiser %d sets differ: %v vs %v", label, i, sa, sb)
			}
		}
	}
}

// TestRandomizedLocalSearchWorkerCountInvariance: the parallel restart
// engine must return bit-identical plans, regret, and aggregated evals for
// every worker count, on both neighborhood strategies, across several
// seeded instances.
func TestRandomizedLocalSearchWorkerCountInvariance(t *testing.T) {
	cases := []struct {
		name         string
		seed         uint64
		nTraj, nBB   int
		maxDeg, nAdv int
		alpha, gamma float64
	}{
		{"tight-market", 101, 300, 35, 25, 5, 1.2, 0.5},
		{"loose-market", 202, 400, 40, 30, 4, 0.6, 0.3},
		{"zero-gamma", 303, 250, 30, 20, 6, 1.0, 0},
	}
	for _, tc := range cases {
		inst := randomInstance(rng.New(tc.seed), tc.nTraj, tc.nBB, tc.maxDeg, tc.nAdv, tc.alpha, tc.gamma)
		for _, kind := range []SearchKind{AdvertiserDriven, BillboardDriven} {
			opts := LocalSearchOptions{Search: kind, Restarts: 5, Seed: tc.seed, Workers: 1}
			serial := RandomizedLocalSearch(inst, opts)
			if err := serial.Validate(); err != nil {
				t.Fatalf("%s/%s: %v", tc.name, kind, err)
			}
			for _, workers := range []int{2, 8} {
				opts.Workers = workers
				got := RandomizedLocalSearch(inst, opts)
				comparePlans(t, tc.name+"/"+kind.String(), serial, got)
			}
		}
	}
}

// TestRandomizedLocalSearchAutoWorkers: Workers <= 0 (the GOMAXPROCS
// default) must also reproduce the serial result.
func TestRandomizedLocalSearchAutoWorkers(t *testing.T) {
	inst := randomInstance(rng.New(77), 300, 30, 25, 5, 1.0, 0.5)
	serial := RandomizedLocalSearch(inst, LocalSearchOptions{
		Search: BillboardDriven, Restarts: 3, Seed: 9, Workers: 1,
	})
	auto := RandomizedLocalSearch(inst, LocalSearchOptions{
		Search: BillboardDriven, Restarts: 3, Seed: 9,
	})
	comparePlans(t, "auto-workers", serial, auto)
}

// TestRestartPoolCELFWorkerInvariance runs the restart pool on a universe
// above the auto-mode CELF threshold, corridor-compressed, so every slot's
// greedy selects through its own heaps and gain vectors, fed by one
// incidence index shared read-only across the solve's slots. Under -race it checks that no mutable selection state crosses
// goroutines; in any mode, workers 4 must reproduce the serial plans,
// regret, evals and cache counters.
func TestRestartPoolCELFWorkerInvariance(t *testing.T) {
	inst := compressedInstance(randomInstance(rng.New(4004), 1200, celfMinBillboards+20, 30, 6, 0.4, 0.5))
	for _, kind := range []SearchKind{AdvertiserDriven, BillboardDriven} {
		opts := LocalSearchOptions{Search: kind, Restarts: 3, Seed: 11, Workers: 1}
		serial := RandomizedLocalSearch(inst, opts)
		if cs := serial.CacheStats(); cs.Rescans != 0 || cs.Misses == 0 {
			t.Fatalf("%s: cache stats %+v, want the CELF path (no rescans)", kind, cs)
		}
		opts.Workers = 4
		got := RandomizedLocalSearch(inst, opts)
		comparePlans(t, "celf/"+kind.String(), serial, got)
		if got.CacheStats() != serial.CacheStats() {
			t.Fatalf("%s: cache stats %+v at workers 4, %+v serial", kind, got.CacheStats(), serial.CacheStats())
		}
	}
}
