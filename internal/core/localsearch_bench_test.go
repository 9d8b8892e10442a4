package core

import (
	"fmt"
	"testing"

	"repro/internal/coverage"
	"repro/internal/dataset"
	"repro/internal/rng"
)

// benchProtoPlan builds a seeded, greedily completed baseline plan — the
// state BLS starts from inside the randomized framework.
func benchProtoPlan(inst *Instance) *Plan {
	p := NewPlan(inst)
	seedRandomPlan(p, rng.New(5))
	synchronousGreedyDone(nil, p)
	return p
}

// BenchmarkBLSDescent measures one full BLS improvement of a
// seeded baseline. The allocation count is the headline: the sweep reuses
// its member/free-list buffers and one scratch trial plan, so allocs/op
// stays flat in the number of passes and moves.
func BenchmarkBLSDescent(b *testing.B) {
	inst := randomInstance(rng.New(9), 2000, 120, 60, 8, 1.2, 0.5)
	proto := benchProtoPlan(inst)
	scratch := proto.Clone()
	opts := LocalSearchOptions{Search: BillboardDriven}.withDefaults()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch.CopyFrom(proto)
		billboardLocalSearch(nil, scratch, opts, nil)
	}
}

// corridorBenchInstance is a paper-inventory NYC universe (1462
// billboards, 17k streamed trips, corridor-compressed) under a small-demand
// market (α = 0.1 at p = 0.5%: 20 advertisers, each demanding about 0.5%
// of the supply): the CELF path's production shape, where the greedy makes
// hundreds of selections over heavily overlapping corridor lists.
func corridorBenchInstance(b *testing.B) *Instance {
	cfg := dataset.PaperNYC(5)
	cfg.Trajectories = 17_000
	s, err := dataset.GenerateUniverse(cfg, dataset.StreamOptions{Lambda: 100})
	if err != nil {
		b.Fatal(err)
	}
	u, _ := coverage.Compress(s.Universe)
	r := rng.New(7)
	const nAdv = 20
	per := 0.1 * float64(u.TotalSupply()) / nAdv
	advs := make([]Advertiser, nAdv)
	for i := range advs {
		d := int64(per * r.Range(0.8, 1.2))
		advs[i] = Advertiser{Demand: d, Payment: float64(d) * r.Range(0.9, 1.1)}
	}
	return MustInstance(u, advs, 0.5)
}

// BenchmarkSynchronousGreedySelection compares the lazy-greedy (CELF) gain
// cache against the reference full scan on two workloads, reporting the
// marginal-evaluation count per run and the wall-clock cost per
// evaluation. "random" has uniformly random high-degree lists (nothing to
// compress); "corridor" is corridorBenchInstance. ns/eval divides a run's
// wall-clock by its evals, so the CELF figure carries the heap and
// gain-vector upkeep along with its O(1) evaluations, and the scan figure
// the coverage-list walk of each evaluation.
func BenchmarkSynchronousGreedySelection(b *testing.B) {
	for _, w := range []struct {
		name string
		inst func(*testing.B) *Instance
	}{
		{"random", func(*testing.B) *Instance { return randomInstance(rng.New(9), 20000, 600, 400, 40, 1.2, 0.5) }},
		{"corridor", corridorBenchInstance},
	} {
		b.Run(w.name, func(b *testing.B) {
			inst := w.inst(b)
			for _, mode := range []struct {
				name string
				celf celfModeKind
			}{{"celf", celfForceOn}, {"scan", celfForceOff}} {
				b.Run(mode.name, func(b *testing.B) {
					defer func(prev celfModeKind) { celfMode = prev }(celfMode)
					celfMode = mode.celf
					var evals int64
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						evals = GGlobal(inst).Evals()
					}
					b.ReportMetric(float64(evals), "evals")
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(evals)/float64(b.N), "ns/eval")
				})
			}
		})
	}
}

// BenchmarkRandomizedLocalSearchWorkers exercises the parallel restart
// engine at several worker counts (results are bit-identical across them;
// only wall-clock changes, and only on multi-core hosts).
func BenchmarkRandomizedLocalSearchWorkers(b *testing.B) {
	inst := randomInstance(rng.New(9), 2000, 120, 60, 8, 1.2, 0.5)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var regret float64
			for i := 0; i < b.N; i++ {
				p := RandomizedLocalSearch(inst, LocalSearchOptions{
					Search: BillboardDriven, Restarts: 8, Seed: 5, Workers: workers,
				})
				regret = p.TotalRegret()
			}
			b.ReportMetric(regret, "regret")
		})
	}
}

// BenchmarkRestartPoolCELF runs a 4-restart BLS on the corridor-compressed
// 420-billboard instance of TestRestartPoolCELFWorkerInvariance, above the
// CELF threshold, so every slot's greedy selects through gain vectors fed
// by the incidence index. B/op shows how many indexes a solve builds.
func BenchmarkRestartPoolCELF(b *testing.B) {
	inst := compressedInstance(randomInstance(rng.New(4004), 1200, celfMinBillboards+20, 30, 6, 0.4, 0.5))
	opts := LocalSearchOptions{Search: BillboardDriven, Restarts: 4, Seed: 11, Workers: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RandomizedLocalSearch(inst, opts)
	}
}
