package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// TraceWriter implements core.Tracer by writing one JSON object per line
// (JSONL), giving `mroam solve -trace out.jsonl` the regret-vs-time
// trajectory the paper's convergence figures are drawn from. The improved
// events form a monotone non-increasing best-regret series (the engine
// serializes them in strictly decreasing regret order); restart_start /
// restart_done events carry the per-slot schedule, and the final done
// record (written by Done) carries the solve's evals and gain-cache
// counters.
//
// All methods are safe for concurrent use — the restart loop invokes the
// tracer from every worker goroutine.
type TraceWriter struct {
	mu       sync.Mutex
	w        io.Writer
	err      error
	improved atomic.Int64
}

// NewTraceWriter returns a TraceWriter emitting JSONL to w. The caller
// owns w (and should buffer it; every event is one Write).
func NewTraceWriter(w io.Writer) *TraceWriter {
	return &TraceWriter{w: w}
}

// traceEvent is the JSONL record schema. Pointer fields are omitted on
// events they do not apply to.
type traceEvent struct {
	Event     string   `json:"event"`
	TMS       *float64 `json:"t_ms,omitempty"`
	Slot      *int     `json:"slot,omitempty"`
	Regret    *float64 `json:"regret,omitempty"`
	Evals     *int64   `json:"evals,omitempty"`
	Algorithm string   `json:"algorithm,omitempty"`
	Seed      *uint64  `json:"seed,omitempty"`
	Restarts  *int     `json:"restarts,omitempty"`
	Truncated *bool    `json:"truncated,omitempty"`
	Hits      *int64   `json:"cache_hits,omitempty"`
	Misses    *int64   `json:"cache_misses,omitempty"`
	Rescans   *int64   `json:"cache_rescans,omitempty"`
}

func (t *TraceWriter) write(ev traceEvent) {
	line, err := json.Marshal(ev)
	if err != nil { // unreachable for this schema; recorded for symmetry
		t.mu.Lock()
		if t.err == nil {
			t.err = err
		}
		t.mu.Unlock()
		return
	}
	line = append(line, '\n')
	t.mu.Lock()
	if t.err == nil {
		_, t.err = t.w.Write(line)
	}
	t.mu.Unlock()
}

func ms(d time.Duration) *float64 {
	v := float64(d.Microseconds()) / 1e3
	return &v
}

// Start writes the header record identifying the solve.
func (t *TraceWriter) Start(algorithm string, seed uint64, restarts int) {
	t.write(traceEvent{Event: "start", Algorithm: algorithm, Seed: &seed, Restarts: &restarts})
}

// RestartStart implements core.Tracer.
func (t *TraceWriter) RestartStart(slot int, elapsed time.Duration) {
	t.write(traceEvent{Event: "restart_start", Slot: &slot, TMS: ms(elapsed)})
}

// RestartDone implements core.Tracer.
func (t *TraceWriter) RestartDone(slot int, regret float64, evals int64, elapsed time.Duration) {
	t.write(traceEvent{Event: "restart_done", Slot: &slot, Regret: &regret, Evals: &evals, TMS: ms(elapsed)})
}

// Improved implements core.Tracer.
func (t *TraceWriter) Improved(slot int, regret float64, elapsed time.Duration) {
	t.improved.Add(1)
	t.write(traceEvent{Event: "improved", Slot: &slot, Regret: &regret, TMS: ms(elapsed)})
}

// Improvements returns how many improved events have been written.
func (t *TraceWriter) Improvements() int64 { return t.improved.Load() }

// Done writes the trailing record carrying the solve's final (reduced)
// regret and its work counters (res.Evals and res.Cache, which count every
// slot's work, abandoned ones included), and returns the first write error
// encountered, if any. If the solve emitted no per-restart events (the
// greedy algorithms have no restart loop), the done record is still
// written, so a trace file is never empty.
func (t *TraceWriter) Done(res *core.Anytime, elapsed time.Duration) error {
	t.write(traceEvent{
		Event:     "done",
		TMS:       ms(elapsed),
		Regret:    &res.TotalRegret,
		Evals:     &res.Evals,
		Truncated: &res.Truncated,
		Hits:      &res.Cache.Hits,
		Misses:    &res.Cache.Misses,
		Rescans:   &res.Cache.Rescans,
	})
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

var _ core.Tracer = (*TraceWriter)(nil)
