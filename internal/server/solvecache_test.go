package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"

	"context"
)

// postSolveRaw sends one /solve request and returns the undecoded body, for
// tests that assert on the wire format itself (field presence, not values).
func postSolveRaw(tb testing.TB, client *http.Client, url string, req SolveRequest) (int, []byte) {
	tb.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := client.Post(url+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestSolveClientDisconnectMidSolve: a client that hangs up while its solve
// is executing must be answered 499 and counted as abandoned — not logged as
// a 200 whose latency and regret pollute the completion series. The handler
// is driven directly with a cancellable context (as in
// TestQueuedClientDisconnect) so the disconnect lands deterministically
// mid-solve.
func TestSolveClientDisconnectMidSolve(t *testing.T) {
	baseline := runtime.NumGoroutine()
	inst := testInstance(t, 50, 8, 2)
	cfg, release, started := gatedConfig(t, inst, 1, 2)
	var logBuf bytes.Buffer
	cfg.Logger = obs.NewLogger(&logBuf, slog.LevelInfo)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	body, err := json.Marshal(SolveRequest{Algorithm: "G-Global"})
	if err != nil {
		t.Fatal(err)
	}
	reqCtx, cancel := context.WithCancel(context.Background())
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body)).WithContext(reqCtx)
		s.Handler().ServeHTTP(rec, req)
		done <- rec
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("solve never started")
	}

	// The client leaves while the solve is executing; then the solve
	// finishes anyway (the gated stub ignores cancellation, like a solver
	// between cancellation checkpoints).
	cancel()
	release()

	var rec *httptest.ResponseRecorder
	select {
	case rec = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handler never unwound")
	}
	if rec.Code != statusClientClosedRequest {
		t.Errorf("disconnected client answered %d, want %d", rec.Code, statusClientClosedRequest)
	}
	if n := s.metrics.abandoned.Value(); n != 1 {
		t.Errorf("abandoned = %d, want 1", n)
	}
	// Nothing was completed: the latency/regret histograms and the
	// per-algorithm counters must be untouched.
	if n := s.metrics.latency.Count(); n != 0 {
		t.Errorf("latency histogram recorded %d completions, want 0", n)
	}
	if n := s.metrics.regret.Count(); n != 0 {
		t.Errorf("regret histogram recorded %d completions, want 0", n)
	}
	logs := logBuf.String()
	if strings.Contains(logs, `"status":200`) {
		t.Errorf("abandoned request logged as 200:\n%s", logs)
	}
	if !strings.Contains(logs, `"status":499`) {
		t.Errorf("abandoned request not logged as 499:\n%s", logs)
	}

	// The exposition stays internally consistent (untouched histograms
	// still carry their full bucket/sum/count shape).
	mrec := httptest.NewRecorder()
	s.MetricsHandler().ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if err := obs.ValidateExposition(mrec.Body.Bytes()); err != nil {
		t.Errorf("invalid exposition after abandoned solve: %v", err)
	}
	assertNoGoroutineLeak(t, baseline)
}

// TestDeadlineClampEcho: whenever the deadline a solve runs under differs
// from the one the request asked for — a clamp to MaxDeadline, or the
// server default applied to a deadline-less request — the response says so
// in effective_deadline_ms. A deadline used verbatim is not echoed, keeping
// the wire format unchanged for requests the server honored as-is.
func TestDeadlineClampEcho(t *testing.T) {
	inst := testInstance(t, 50, 8, 2)
	s, err := New(Config{
		Catalog:         catalogFor(t, inst),
		Workers:         2,
		DefaultDeadline: 100 * time.Millisecond,
		MaxDeadline:     200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Asked for 5s, clamped to the 200ms cap.
	status, got, _ := postSolve(t, ts.Client(), ts.URL,
		SolveRequest{Algorithm: "G-Order", DeadlineMS: 5000})
	if status != http.StatusOK {
		t.Fatalf("clamped solve: %d", status)
	}
	if got.EffectiveDeadlineMS != 200 {
		t.Errorf("clamped effective_deadline_ms = %d, want 200", got.EffectiveDeadlineMS)
	}

	// Asked for nothing, got the 100ms server default.
	status, got, _ = postSolve(t, ts.Client(), ts.URL, SolveRequest{Algorithm: "G-Order"})
	if status != http.StatusOK {
		t.Fatalf("defaulted solve: %d", status)
	}
	if got.EffectiveDeadlineMS != 100 {
		t.Errorf("defaulted effective_deadline_ms = %d, want 100", got.EffectiveDeadlineMS)
	}

	// Asked for 150ms, which the server honored verbatim: the field is
	// absent from the wire, not echoed as 150.
	status, raw := postSolveRaw(t, ts.Client(), ts.URL,
		SolveRequest{Algorithm: "G-Order", DeadlineMS: 150})
	if status != http.StatusOK {
		t.Fatalf("verbatim solve: %d", status)
	}
	if strings.Contains(string(raw), "effective_deadline_ms") {
		t.Errorf("verbatim deadline echoed:\n%s", raw)
	}
}

// TestSolveCacheHitAndInvalidation walks the cache lifecycle end to end on
// real solves: miss → hit (with age and events), hot-swap → natural miss via
// the generation in the key (plus eager invalidation), and DELETE dropping
// the name's entries. Work counters must reflect solver work done, not
// requests answered.
func TestSolveCacheHitAndInvalidation(t *testing.T) {
	specOld, specNew := serverSpec(5), serverSpec(6)
	baseOld, baseNew := baselineFor(t, specOld), baselineFor(t, specNew)
	cat := catalog.New()
	if _, err := cat.Load("A", specOld); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Catalog: cat, Workers: 2, CacheEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	matches := func(r SolveResponse, b solveBaseline) bool {
		return r.TotalRegret == b.regret && r.Evals == b.evals && r.Advertisers == b.advertisers
	}
	req := SolveRequest{Algorithm: "BLS", Restarts: 2, Seed: 9, Instance: "A"}

	// First solve: a miss that runs the solver; no cache fields on the wire.
	status, raw := postSolveRaw(t, client, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("first solve: %d", status)
	}
	if strings.Contains(string(raw), `"cached"`) {
		t.Errorf("uncached response carries cache fields:\n%s", raw)
	}
	var first SolveResponse
	if err := json.Unmarshal(raw, &first); err != nil {
		t.Fatal(err)
	}
	if !matches(first, baseOld) {
		t.Errorf("first solve %+v does not match baseline %+v", first, baseOld)
	}

	// Identical request: served from cache, bit-identical, flagged.
	status, raw = postSolveRaw(t, client, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("second solve: %d", status)
	}
	if !strings.Contains(string(raw), `"cached": true`) {
		t.Errorf("repeat response not flagged cached:\n%s", raw)
	}
	var second SolveResponse
	if err := json.Unmarshal(raw, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached || !matches(second, baseOld) {
		t.Errorf("cached solve %+v differs from baseline %+v", second, baseOld)
	}
	if second.CacheAgeMS < 0 {
		t.Errorf("negative cache age %v", second.CacheAgeMS)
	}
	if hits := s.metrics.solveCache.With("hit").Value(); hits != 1 {
		t.Errorf("hit events = %d, want 1", hits)
	}
	if misses := s.metrics.solveCache.With("miss").Value(); misses != 1 {
		t.Errorf("miss events = %d, want 1", misses)
	}
	if n := s.cache.Len(); n != 1 {
		t.Errorf("cache holds %d entries, want 1", n)
	}

	// Hot-swap "A": the new generation is a natural miss, and the dead
	// entry is invalidated eagerly.
	body, _ := json.Marshal(specNew)
	putReq, err := http.NewRequest(http.MethodPut, ts.URL+"/instances/A", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	putResp, err := client.Do(putReq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, putResp.Body)
	putResp.Body.Close()
	if putResp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %d", putResp.StatusCode)
	}
	if evicted := s.metrics.solveCache.With("evicted").Value(); evicted != 1 {
		t.Errorf("evicted events after reload = %d, want 1", evicted)
	}

	status, third, _ := postSolve(t, client, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("post-swap solve: %d", status)
	}
	if third.Cached || !matches(third, baseNew) {
		t.Errorf("post-swap solve %+v (cached=%v), want uncached match of %+v",
			third, third.Cached, baseNew)
	}
	status, fourth, _ := postSolve(t, client, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("post-swap repeat: %d", status)
	}
	if !fourth.Cached || !matches(fourth, baseNew) {
		t.Errorf("post-swap repeat %+v (cached=%v), want cached match of %+v",
			fourth, fourth.Cached, baseNew)
	}

	// Solver work ran twice (2 restarts each); the two cached responses
	// contributed no restarts, evals or gain-cache events.
	if n := s.metrics.restarts.Value(); n != 4 {
		t.Errorf("solver restarts total = %d, want 4 (2 real solves x 2 restarts)", n)
	}
	if n := s.metrics.latency.Count(); n != 4 {
		t.Errorf("completed requests = %d, want 4", n)
	}
	wantEvals := baseOld.evals + baseNew.evals
	if n := s.metrics.evals.Value(); n != wantEvals {
		t.Errorf("solver evals total = %d, want %d", n, wantEvals)
	}

	// DELETE drops the deleted instance's entries from the cache (and only
	// those). "A" is the default and cannot be deleted, so use a second
	// instance.
	body, _ = json.Marshal(specOld)
	putReq, err = http.NewRequest(http.MethodPut, ts.URL+"/instances/B", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	putResp, err = client.Do(putReq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, putResp.Body)
	putResp.Body.Close()
	if putResp.StatusCode != http.StatusCreated {
		t.Fatalf("create B: %d", putResp.StatusCode)
	}
	reqB := req
	reqB.Instance = "B"
	if status, _, fail := postSolve(t, client, ts.URL, reqB); status != http.StatusOK {
		t.Fatalf("solve B: %d (%s)", status, fail.Error)
	}
	if n := s.cache.Len(); n != 2 {
		t.Fatalf("cache holds %d entries before delete, want 2", n)
	}
	delReq, err := http.NewRequest(http.MethodDelete, ts.URL+"/instances/B", nil)
	if err != nil {
		t.Fatal(err)
	}
	delResp, err := client.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, delResp.Body)
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", delResp.StatusCode)
	}
	if n := s.cache.Len(); n != 1 {
		t.Errorf("cache holds %d entries after delete, want A's 1", n)
	}

	// The exposition carries the cache series and stays valid.
	mresp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	expo, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err := obs.ValidateExposition(expo); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, expo)
	}
	for _, want := range []string{
		`mroamd_solve_cache_events_total{event="hit"} 2`,
		`mroamd_solve_cache_events_total{event="evicted"} 2`,
		"mroamd_solve_cache_entries 1",
	} {
		if !strings.Contains(string(expo), want) {
			t.Errorf("exposition missing %q:\n%s", want, expo)
		}
	}
}

// TestSolveCacheCoalescing: identical requests arriving while the answer is
// still being computed join the one in-flight solve instead of starting
// their own. The gated solve makes the overlap deterministic: exactly one
// solver execution serves all three clients.
func TestSolveCacheCoalescing(t *testing.T) {
	baseline := runtime.NumGoroutine()
	inst := testInstance(t, 50, 8, 2)
	cfg, release, started := gatedConfig(t, inst, 3, 4)
	cfg.CacheEntries = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	const clients = 3
	results := make(chan SolveResponse, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, got, fail := postSolve(t, ts.Client(), ts.URL, SolveRequest{Algorithm: "G-Global"})
			if status != http.StatusOK {
				t.Errorf("solve: %d (%s)", status, fail.Error)
				return
			}
			results <- got
		}()
	}

	// One flight starts; the other two must have coalesced onto it before
	// the gate opens.
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("flight never started")
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.solveCache.With("coalesced").Value() < clients-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d requests coalesced, want %d",
				s.metrics.solveCache.With("coalesced").Value(), clients-1)
		}
		time.Sleep(2 * time.Millisecond)
	}
	release()
	wg.Wait()
	close(results)

	select {
	case <-started:
		t.Fatal("a second solver execution started for identical requests")
	default:
	}
	cachedCount := 0
	for got := range results {
		if got.Cached {
			cachedCount++
		}
	}
	// The leader reports an uncached solve; both followers report cached.
	if cachedCount != clients-1 {
		t.Errorf("%d responses flagged cached, want %d", cachedCount, clients-1)
	}
	if misses := s.metrics.solveCache.With("miss").Value(); misses != 1 {
		t.Errorf("miss events = %d, want 1", misses)
	}

	ts.Client().CloseIdleConnections()
	ts.Close()
	assertNoGoroutineLeak(t, baseline)
}

// TestOrphanedFlightWorkCounted: a cache flight whose only requester gave
// up — its deadline fired, so it answered with the truncated fallback —
// keeps running detached. When it lands, its solver work must still be
// counted and its complete plan must become the warm-start incumbent, even
// though no request is waiting for it any more.
func TestOrphanedFlightWorkCounted(t *testing.T) {
	baseline := runtime.NumGoroutine()
	inst := testInstance(t, 50, 8, 2)
	cfg, release, started := gatedConfig(t, inst, 1, 1)
	cfg.CacheEntries = 4
	const flightEvals, flightRestarts = 1234, 3
	gated := cfg.solve
	cfg.solve = func(ctx context.Context, alg core.Algorithm, in *core.Instance) *core.Anytime {
		if ctx.Err() != nil {
			// The leader's expired fallback: the anytime contract answers
			// at once with a truncated result and no work.
			p := core.NewPlan(in)
			return &core.Anytime{Plan: p, TotalRegret: p.TotalRegret(), Truncated: true}
		}
		res := gated(ctx, alg, in)
		res.Evals, res.RestartsCompleted = flightEvals, flightRestarts
		return res
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Client().CloseIdleConnections()
		ts.Close()
		assertNoGoroutineLeak(t, baseline)
	}()
	defer release()

	req := SolveRequest{Algorithm: "G-Global", DeadlineMS: 30}
	status, got, fail := postSolve(t, ts.Client(), ts.URL, req)
	if status != http.StatusOK || !got.Truncated || got.Cached {
		t.Fatalf("leader: status %d (%s), truncated %v, cached %v; want a truncated uncached 200",
			status, fail.Error, got.Truncated, got.Cached)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("the flight never started")
	}

	// Let the orphaned flight finish. A repeat request is then answered by
	// it — from the cache, or by joining the flight if it has not landed
	// yet — so once the repeat returns, the flight has completed.
	release()
	status, got, fail = postSolve(t, ts.Client(), ts.URL, req)
	if status != http.StatusOK || !got.Cached || got.Evals != flightEvals {
		t.Fatalf("repeat: status %d (%s), cached %v, evals %d; want the flight's cached result",
			status, fail.Error, got.Cached, got.Evals)
	}
	if n := s.metrics.evals.Value(); n != flightEvals {
		t.Errorf("mroamd_solver_evals_total = %d, want the flight's %d", n, flightEvals)
	}
	if n := s.metrics.restarts.Value(); n != flightRestarts {
		t.Errorf("mroamd_solver_restarts_total = %d, want the flight's %d", n, flightRestarts)
	}
	entry, _ := s.catalog.Get("")
	if s.incumbentFor(entry) == nil {
		t.Error("the flight's complete plan did not become the warm-start incumbent")
	}
}

// TestCacheHammerUnderHotSwap is the cache's core concurrency contract, run
// under -race: clients hammer one identical request while a writer keeps
// hot-swapping the instance underneath them. Every response must match the
// baseline of the exact generation it reports, and — the compute-once
// guarantee — the solver runs at most once per catalog build, no matter how
// the hits, coalesced waits and misses interleave.
func TestCacheHammerUnderHotSwap(t *testing.T) {
	baseline := runtime.NumGoroutine()
	specOld, specNew := serverSpec(5), serverSpec(6)
	baseOld, baseNew := baselineFor(t, specOld), baselineFor(t, specNew)
	if baseOld == baseNew {
		t.Fatalf("test needs distinguishable builds, both gave %+v", baseOld)
	}

	cat := catalog.New()
	entry0, err := cat.Load("A", specOld)
	if err != nil {
		t.Fatal(err)
	}

	// Count solver executions per instance build. Each catalog.Load builds
	// a fresh *core.Instance, so the pointer identifies the generation.
	var solveMu sync.Mutex
	solves := make(map[*core.Instance]int)
	cfg := Config{
		Catalog:      cat,
		Workers:      4,
		QueueDepth:   64,
		CacheEntries: 64,
		solve: func(ctx context.Context, alg core.Algorithm, in *core.Instance) *core.Anytime {
			solveMu.Lock()
			solves[in]++
			solveMu.Unlock()
			return core.SolveAnytime(ctx, alg, in)
		},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	// generation -> the baseline its build must solve to.
	genBase := map[uint64]solveBaseline{entry0.Generation: baseOld}
	var genMu sync.Mutex

	const clients, perClient = 4, 25
	results := make(chan SolveResponse, clients*perClient)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				status, got, fail := postSolve(t, ts.Client(), ts.URL,
					SolveRequest{Algorithm: "BLS", Restarts: 2, Seed: 9, Instance: "A"})
				if status != http.StatusOK {
					t.Errorf("solve: %d (%s)", status, fail.Error)
					return
				}
				results <- got
			}
		}()
	}

	swapDone := make(chan struct{})
	go func() {
		defer close(swapDone)
		for i := 0; i < 20; i++ {
			spec, base := specNew, baseNew
			if i%2 == 1 {
				spec, base = specOld, baseOld
			}
			body, _ := json.Marshal(spec)
			putReq, err := http.NewRequest(http.MethodPut, ts.URL+"/instances/A", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := ts.Client().Do(putReq)
			if err != nil {
				t.Error(err)
				return
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("reload %d: %d", i, resp.StatusCode)
				return
			}
			var info InstanceInfo
			if err := json.Unmarshal(raw, &info); err != nil {
				t.Error(err)
				return
			}
			genMu.Lock()
			genBase[info.Generation] = base
			genMu.Unlock()
		}
	}()

	wg.Wait()
	<-swapDone
	close(results)

	sawCached := 0
	for got := range results {
		base, known := genBase[got.Generation]
		if !known {
			t.Errorf("response reports unknown generation %d: %+v", got.Generation, got)
			continue
		}
		if got.TotalRegret != base.regret || got.Evals != base.evals || got.Advertisers != base.advertisers {
			t.Errorf("generation %d response %+v does not match its build's baseline %+v",
				got.Generation, got, base)
		}
		if got.Truncated {
			t.Errorf("truncated response without a deadline: %+v", got)
		}
		if got.Cached {
			sawCached++
		}
	}
	// 100 identical requests over at most 21 generations: the pigeonhole
	// guarantees repeats, and repeats must have been served by the cache.
	if sawCached == 0 {
		t.Error("no response was served from the cache")
	}

	// Compute-once: no build was ever solved twice.
	solveMu.Lock()
	for in, n := range solves {
		if n != 1 {
			t.Errorf("build %p solved %d times, want 1", in, n)
		}
	}
	total := len(solves)
	solveMu.Unlock()
	if total > len(genBase) {
		t.Errorf("%d solver executions for %d generations", total, len(genBase))
	}

	ts.Client().CloseIdleConnections()
	ts.Close()
	assertNoGoroutineLeak(t, baseline)
}
