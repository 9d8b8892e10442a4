package server

import (
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/obs"
)

// phase is one stage of a /solve request's server time. The stages of
// handleSolve cross from one phase to the next through reqLifecycle.enter,
// the only place phase spans are opened and closed and phase histograms
// observed.
type phase uint8

const (
	phaseAdmission   phase = iota // decode, validate, resolve
	phaseCacheLookup              // the solve-cache fast-path probe
	phaseQueue                    // admission checks and the wait for a worker slot
	phaseSolve                    // solver (or coalesced flight) execution
	phaseEncode                   // response serialization
	numPhases
)

// phaseNames are the phases' span names.
var phaseNames = [numPhases]string{"admission", "cache_lookup", "queue", "solve", "encode"}

// reqLifecycle is one /solve request's phase table and its single exit. The
// table holds the open phase, where it started and every closed phase's
// duration; Server-Timing, the mroamd_solve_phase_seconds and
// mroamd_queue_wait_seconds histograms and, when the server has a span
// store, the request's span tree are all read from it. Adjacent phases share
// their boundary instant, so phase durations sum exactly (integer
// nanoseconds) to the root span's duration — the property the trace-smoke
// target and TestTraceEndToEnd assert. Spans exist only when tracing is
// enabled, so the disabled path mints no IDs.
type reqLifecycle struct {
	w     http.ResponseWriter
	m     *metrics
	store *obs.SpanStore
	log   *slog.Logger // the request's logger, bound to its ID

	start time.Time
	// requestID is the X-Request-ID value: the client's trace ID when it
	// supplied a valid traceparent, a legacy process-unique ID otherwise.
	requestID string
	// traceID is non-empty whenever the request has a trace identity —
	// always when tracing is enabled, and when the client sent a valid
	// traceparent even with tracing off.
	traceID string

	rec    *obs.SpanRecorder
	root   *obs.ActiveSpan
	span   *obs.ActiveSpan    // the open phase's span (child of root)
	tracer *obs.RestartTracer // nil unless spans or Debug logging are on

	cur   phase
	curAt time.Time
	// histAt is where the open histogram observation began: consecutive
	// phases observed into one histogram (admission and the cache probe)
	// make one observation.
	histAt time.Time
	dur    [numPhases]time.Duration

	instance  string
	algorithm string
	model     string
}

// startLifecycle begins a request's lifecycle at its arrival instant in the
// admission phase: resolves the trace identity from the incoming
// traceparent header, binds the request logger, opens the root and
// admission spans when tracing is enabled, and stamps the X-Request-ID and
// traceparent response headers so every answer — including 429s — carries
// them.
func (s *Server) startLifecycle(w http.ResponseWriter, r *http.Request, start time.Time) *reqLifecycle {
	lc := &reqLifecycle{w: w, m: s.metrics, store: s.traces, start: start, curAt: start, histAt: start}
	clientTrace, clientSpan, sampled, ok := obs.ParseTraceparent(r.Header.Get("Traceparent"))
	if ok {
		// The client's trace ID is the request's identity end to end: the
		// same string appears in the client's records, X-Request-ID, the
		// server log line and /debug/traces.
		lc.requestID = clientTrace
		lc.traceID = clientTrace
	} else {
		lc.requestID = obs.NewRequestID()
	}
	if s.traces != nil {
		lc.rec = obs.NewSpanRecorder(clientTrace)
		lc.traceID = lc.rec.TraceID()
		lc.root = lc.rec.StartSpanAt("request", clientSpan, start)
		lc.span = lc.root.StartChildAt(phaseNames[phaseAdmission], start)
		// Echo our root span as the server's contribution to the trace.
		w.Header().Set("Traceparent", obs.FormatTraceparent(lc.traceID, lc.root.ID(), true))
	} else if ok {
		// Tracing disabled: still echo the client's context back verbatim
		// (normalized), so propagation round-trips are observable.
		w.Header().Set("Traceparent", obs.FormatTraceparent(clientTrace, clientSpan, sampled))
	}
	w.Header().Set("X-Request-ID", lc.requestID)
	lc.log = s.log.With("req", lc.requestID)
	if lc.traceID != "" && lc.traceID != lc.requestID {
		lc.log = lc.log.With("trace", lc.traceID)
	}
	lc.tracer = obs.NewRestartTracer(lc.log, lc.rec != nil)
	return lc
}

// noteTarget records the request's routing dimensions once the instance
// resolved and the algorithm validated. model is the resolved instance's
// regret-model kind.
func (l *reqLifecycle) noteTarget(instance, algorithm, model string) {
	l.instance, l.algorithm, l.model = instance, algorithm, model
	l.setAttr("instance", instance)
	l.setAttr("algorithm", algorithm)
	l.setAttr("model", model)
}

// setAttr annotates the request's root span (no-op without tracing).
func (l *reqLifecycle) setAttr(key string, value any) {
	if l.root != nil {
		l.root.SetAttr(key, value)
	}
}

// enter is the stage boundary: it closes the open phase at `at` and opens
// next at the same instant. The closed phase's time is observed into its
// histogram once the next phase belongs to a different one, its span ends
// and next's span starts, and entering the solve phase arms the restart
// tracer under the solve span.
func (l *reqLifecycle) enter(next phase, at time.Time) {
	l.dur[l.cur] = at.Sub(l.curAt)
	if h := l.m.phaseHist[l.cur]; h != l.m.phaseHist[next] {
		h.Observe(at.Sub(l.histAt).Seconds())
		l.histAt = at
	}
	l.cur, l.curAt = next, at
	if l.rec == nil {
		return
	}
	l.span.EndAt(at)
	l.span = l.root.StartChildAt(phaseNames[next], at)
	if next == phaseSolve && l.tracer != nil {
		l.tracer.Begin(l.span, at)
	}
}

// fail answers the request with an error body; see finish.
func (l *reqLifecycle) fail(status int, outcome, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	l.finish(status, outcome, errorResponse{Error: msg}, "error", msg)
}

// finish is every /solve request's one exit, served or not: it emits the
// request's log line (attrs plus status and elapsed time), writes the
// response — with the Server-Timing header when served — and closes the
// phase table and the trace with the outcome. Only a served request
// completes its open phase (encode), so only then is that phase observed;
// a phase an error exit cut short contributes nothing to the histograms.
func (l *reqLifecycle) finish(status int, outcome string, body any, attrs ...any) {
	attrs = append(attrs,
		"status", status,
		"elapsed_ms", durationMS(time.Since(l.start)))
	l.log.Info("solve request", attrs...)
	served := status == http.StatusOK
	if served {
		// Encoding happens after the headers flush, so total is the server
		// time up to here.
		l.w.Header().Set("Server-Timing",
			obs.FormatServerTiming(l.dur[phaseQueue], l.dur[phaseSolve], time.Since(l.start)))
	}
	writeJSON(l.w, status, body)

	end := time.Now()
	if served {
		l.m.phaseHist[l.cur].Observe(end.Sub(l.histAt).Seconds())
	}
	if l.rec == nil {
		return
	}
	l.span.EndAt(end)
	l.root.SetAttr("outcome", outcome)
	l.root.EndAt(end)
	spans := l.rec.Spans()
	obs.SortSpans(spans)
	l.store.Add(&obs.TraceRecord{
		TraceID:   l.rec.TraceID(),
		Start:     l.start,
		Duration:  l.root.Duration(),
		Outcome:   outcome,
		Instance:  l.instance,
		Algorithm: l.algorithm,
		Model:     l.model,
		Status:    status,
		Spans:     spans,
	})
}
