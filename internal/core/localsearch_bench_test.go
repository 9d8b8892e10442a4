package core

import (
	"fmt"
	"testing"

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

// BenchmarkSynchronousGreedySelection compares the lazy-greedy (CELF) gain
// cache against the reference full scan on the same workload, reporting
// the marginal-evaluation count per run. The instance is sized so marginal
// evaluations dominate (high-degree billboards): that is the regime the
// cache targets — on tiny instances heap upkeep can cost more than the
// cheap evaluations it skips.
func BenchmarkSynchronousGreedySelection(b *testing.B) {
	inst := randomInstance(rng.New(9), 20000, 600, 400, 40, 1.2, 0.5)
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
