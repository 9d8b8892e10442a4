package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/rng"
)

// recordingTracer captures every probe event; safe for concurrent use.
type recordingTracer struct {
	mu       sync.Mutex
	started  []int
	done     []int
	improved []float64 // in arrival order; the engine must serialize these
}

func (r *recordingTracer) RestartStart(slot int, _ time.Duration) {
	r.mu.Lock()
	r.started = append(r.started, slot)
	r.mu.Unlock()
}

func (r *recordingTracer) RestartDone(slot int, _ float64, _ int64, _ time.Duration) {
	r.mu.Lock()
	r.done = append(r.done, slot)
	r.mu.Unlock()
}

func (r *recordingTracer) Improved(_ int, regret float64, _ time.Duration) {
	r.mu.Lock()
	r.improved = append(r.improved, regret)
	r.mu.Unlock()
}

// TestTracerDoesNotPerturbResults: attaching a tracer must leave the plan
// bit-identical — same sets, regret and evals — for both neighborhood
// strategies and for serial and parallel restart loops. This is the
// zero-interference contract that lets the server attach debug tracing to
// production solves.
func TestTracerDoesNotPerturbResults(t *testing.T) {
	inst := randomInstance(rng.New(512), 350, 40, 25, 6, 1.1, 0.5)
	for _, kind := range []SearchKind{AdvertiserDriven, BillboardDriven} {
		base := RandomizedLocalSearch(inst, LocalSearchOptions{
			Search: kind, Restarts: 4, Seed: 99, Workers: 1,
		})
		for _, workers := range []int{1, 4} {
			rec := &recordingTracer{}
			traced := RandomizedLocalSearch(inst, LocalSearchOptions{
				Search: kind, Restarts: 4, Seed: 99, Workers: workers, Tracer: rec,
			})
			comparePlans(t, kind.String(), base, traced)

			// Slots 0..Restarts must each start and finish exactly once.
			if len(rec.started) != 5 || len(rec.done) != 5 {
				t.Errorf("%s workers=%d: %d starts / %d dones, want 5/5",
					kind, workers, len(rec.started), len(rec.done))
			}
			seen := map[int]int{}
			for _, s := range rec.done {
				seen[s]++
			}
			for slot := 0; slot <= 4; slot++ {
				if seen[slot] != 1 {
					t.Errorf("%s workers=%d: slot %d finished %d times", kind, workers, slot, seen[slot])
				}
			}

			// Improved events arrive serialized in strictly decreasing
			// regret order, ending at the final answer.
			if len(rec.improved) == 0 {
				t.Fatalf("%s workers=%d: no improvement events", kind, workers)
			}
			for i := 1; i < len(rec.improved); i++ {
				if rec.improved[i] >= rec.improved[i-1] {
					t.Errorf("%s workers=%d: improvements not strictly decreasing: %v",
						kind, workers, rec.improved)
				}
			}
			if last := rec.improved[len(rec.improved)-1]; last != traced.TotalRegret() {
				t.Errorf("%s workers=%d: last improvement %v != final regret %v",
					kind, workers, last, traced.TotalRegret())
			}
		}
	}
}

// TestTracerFuncsNilCallbacks: a TracerFuncs with every callback nil must
// be usable as a Tracer without panicking — partial instrumentation is the
// common case.
func TestTracerFuncsNilCallbacks(t *testing.T) {
	inst := randomInstance(rng.New(8), 200, 25, 20, 4, 1.0, 0.4)
	var improved int
	tr := &TracerFuncs{
		OnImproved: func(int, float64, time.Duration) { improved++ },
	}
	p := RandomizedLocalSearch(inst, LocalSearchOptions{
		Search: BillboardDriven, Restarts: 3, Seed: 5, Workers: 1, Tracer: tr,
	})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if improved == 0 {
		t.Error("OnImproved never fired")
	}
}
