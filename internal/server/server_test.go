package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/rng"
)

// catalogFor wraps a single pre-built instance in a catalog, as the default
// entry named "default" — the single-instance shape most tests need.
func catalogFor(tb testing.TB, inst *core.Instance) *catalog.Catalog {
	tb.Helper()
	c := catalog.New()
	if _, err := c.AddInstance("default", inst); err != nil {
		tb.Fatal(err)
	}
	return c
}

// testInstance builds a deterministic random instance sized by the caller.
func testInstance(tb testing.TB, nTraj, nBB, nAdv int) *core.Instance {
	tb.Helper()
	r := rng.New(11)
	lists := make([]coverage.List, nBB)
	for b := range lists {
		deg := 1 + r.Intn(nTraj/3+1)
		ids := make([]int32, deg)
		for i := range ids {
			ids[i] = int32(r.Intn(nTraj))
		}
		lists[b] = coverage.NewList(ids)
	}
	u, err := coverage.NewUniverse(nTraj, lists)
	if err != nil {
		tb.Fatal(err)
	}
	per := 1.1 * float64(u.TotalSupply()) / float64(nAdv)
	advs := make([]core.Advertiser, nAdv)
	for i := range advs {
		d := int64(per * r.Range(0.8, 1.2))
		if d < 1 {
			d = 1
		}
		advs[i] = core.Advertiser{Demand: d, Payment: float64(d)}
	}
	inst, err := core.NewInstance(u, advs, 0.5)
	if err != nil {
		tb.Fatal(err)
	}
	return inst
}

// postSolve sends one /solve request and decodes the response.
func postSolve(tb testing.TB, client *http.Client, url string, req SolveRequest) (int, SolveResponse, errorResponse) {
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
	var ok SolveResponse
	var fail errorResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &ok); err != nil {
			tb.Fatalf("decode 200 body %q: %v", raw, err)
		}
	} else if err := json.Unmarshal(raw, &fail); err != nil {
		tb.Fatalf("decode %d body %q: %v", resp.StatusCode, raw, err)
	}
	return resp.StatusCode, ok, fail
}

// assertNoGoroutineLeak waits for the goroutine count to return to the
// baseline captured before the test's server work (the in-tree stand-in for
// goleak, which is not vendored).
func assertNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestSolveEndpointMatchesLibrary(t *testing.T) {
	inst := testInstance(t, 200, 30, 4)
	s, err := New(Config{Catalog: catalogFor(t, inst), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := SolveRequest{Algorithm: "BLS", Restarts: 3, Seed: 9, IncludeAssignments: true}
	status, got, _ := postSolve(t, ts.Client(), ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	want := core.BLSAlgorithm{Opts: core.LocalSearchOptions{Restarts: 3, Seed: 9, Workers: 1}}.SolveCtx(context.Background(), inst).Plan
	if got.TotalRegret != want.TotalRegret() {
		t.Errorf("regret %v, want %v", got.TotalRegret, want.TotalRegret())
	}
	if got.Truncated {
		t.Error("truncated without a deadline")
	}
	if got.RestartsCompleted != 3 || got.RestartsRequested != 3 {
		t.Errorf("restarts %d/%d, want 3/3", got.RestartsCompleted, got.RestartsRequested)
	}
	if got.Satisfied != want.SatisfiedCount() || got.Advertisers != inst.NumAdvertisers() {
		t.Errorf("satisfied %d/%d, want %d/%d",
			got.Satisfied, got.Advertisers, want.SatisfiedCount(), inst.NumAdvertisers())
	}
	if len(got.Assignments) != inst.NumAdvertisers() {
		t.Fatalf("assignments for %d advertisers, want %d", len(got.Assignments), inst.NumAdvertisers())
	}
	for i, set := range got.Assignments {
		w := want.Set(i, nil)
		if len(set) != len(w) {
			t.Errorf("advertiser %d assignment %v, want %v", i, set, w)
		}
	}
	if got.LatencyMS < 0 {
		t.Errorf("negative latency %v", got.LatencyMS)
	}

	// Same seed again: deterministic answer.
	_, again, _ := postSolve(t, ts.Client(), ts.URL, req)
	if again.TotalRegret != got.TotalRegret || again.Evals != got.Evals {
		t.Errorf("repeat solve differs: %v/%d vs %v/%d",
			again.TotalRegret, again.Evals, got.TotalRegret, got.Evals)
	}
}

func TestSolveDeadlineTruncates(t *testing.T) {
	inst := testInstance(t, 20000, 600, 6)
	s, err := New(Config{Catalog: catalogFor(t, inst), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, got, _ := postSolve(t, ts.Client(), ts.URL,
		SolveRequest{Algorithm: "BLS", Restarts: 500, Seed: 1, DeadlineMS: 25})
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if !got.Truncated {
		t.Error("500-restart BLS on a 600-billboard instance finished in 25ms?")
	}
	if got.RestartsCompleted >= got.RestartsRequested {
		t.Errorf("restarts %d/%d under a 25ms deadline", got.RestartsCompleted, got.RestartsRequested)
	}

	// The truncation must be visible in /stats.
	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 1 || stats.Truncated != 1 || stats.TruncationRate != 1 {
		t.Errorf("stats completed=%d truncated=%d rate=%v, want 1/1/1",
			stats.Completed, stats.Truncated, stats.TruncationRate)
	}
	if stats.LatencyMaxMS <= 0 || stats.Evals <= 0 {
		t.Errorf("stats latency_max=%v evals=%d, want positive", stats.LatencyMaxMS, stats.Evals)
	}
}

func TestSolveRejectsBadRequests(t *testing.T) {
	inst := testInstance(t, 50, 8, 2)
	s, err := New(Config{Catalog: catalogFor(t, inst), Workers: 1, MaxRestarts: 10})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get, err := ts.Client().Get(ts.URL + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /solve: %d, want 405", get.StatusCode)
	}

	bad, err := ts.Client().Post(ts.URL+"/solve", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: %d, want 400", bad.StatusCode)
	}

	cases := []SolveRequest{
		{Algorithm: "Simplex"},
		{Algorithm: "BLS", Restarts: -1},
		{Algorithm: "BLS", DeadlineMS: -5},
		{Algorithm: "BLS", Restarts: 11}, // above MaxRestarts
	}
	for _, req := range cases {
		status, _, fail := postSolve(t, ts.Client(), ts.URL, req)
		if status != http.StatusBadRequest {
			t.Errorf("%+v: status %d (%s), want 400", req, status, fail.Error)
		}
	}
}

func TestHealthz(t *testing.T) {
	inst := testInstance(t, 50, 8, 2)
	s, err := New(Config{Catalog: catalogFor(t, inst)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Errorf("status field %v", body["status"])
	}
	// The probe reports the default instance's corridor-compressed coverage
	// substrate. testInstance registers a dense (uncompressed) universe, so
	// corridors == |T| and the ratio is exactly 1.
	if c, ok := body["corridors"].(float64); !ok || c != 50 {
		t.Errorf("corridors %v, want 50", body["corridors"])
	}
	if r, ok := body["compression_ratio"].(float64); !ok || r != 1.0 {
		t.Errorf("compression_ratio %v, want 1", body["compression_ratio"])
	}
}

// gatedConfig returns a Config whose solves block until the returned
// release function is called, plus a channel that receives one token per
// solve that has started executing.
func gatedConfig(tb testing.TB, inst *core.Instance, workers, queue int) (Config, func(), chan struct{}) {
	gate := make(chan struct{})
	started := make(chan struct{}, 64)
	cfg := Config{
		Catalog:    catalogFor(tb, inst),
		Workers:    workers,
		QueueDepth: queue,
		solve: func(ctx context.Context, alg core.Algorithm, in *core.Instance) *core.Anytime {
			started <- struct{}{}
			<-gate
			p := core.NewPlan(in)
			return &core.Anytime{Plan: p, TotalRegret: p.TotalRegret()}
		},
	}
	var once sync.Once
	return cfg, func() { once.Do(func() { close(gate) }) }, started
}

// TestBurstSheds429 drives the pool at 4× its admission capacity: the
// excess must be rejected with 429 immediately (while every admitted solve
// is still blocked), admitted requests must all complete once unblocked,
// and nothing may leak.
func TestBurstSheds429(t *testing.T) {
	baseline := runtime.NumGoroutine()
	inst := testInstance(t, 50, 8, 2)
	const workers, queue = 2, 2
	capacity := workers + queue // 4
	burst := 4 * capacity       // 16

	cfg, release, started := gatedConfig(t, inst, workers, queue)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	statuses := make(chan int, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, _, _ := postSolve(t, ts.Client(), ts.URL, SolveRequest{Algorithm: "G-Global"})
			statuses <- status
		}()
	}

	// All worker slots must fill; rejections happen at admission without
	// ever reaching a worker.
	for i := 0; i < workers; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("workers never started")
		}
	}

	// While the gate is closed no admission token can recycle, so exactly
	// the excess must bounce with 429. Collect all of them before opening
	// the gate — releasing earlier would let tokens recycle and admit
	// stragglers.
	var ok, rejected, other int
	for rejected < burst-capacity {
		select {
		case status := <-statuses:
			switch status {
			case http.StatusTooManyRequests:
				rejected++
			case http.StatusOK:
				ok++ // impossible while gated; counted so the final check reports it
			default:
				other++
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("stalled with %d ok / %d rejected / %d other", ok, rejected, other)
		}
	}
	release()
	wg.Wait()
	close(statuses)

	for status := range statuses {
		switch status {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			rejected++
		default:
			other++
		}
	}
	if ok != capacity || rejected != burst-capacity || other != 0 {
		t.Errorf("burst of %d: %d ok, %d rejected, %d other; want %d/%d/0",
			burst, ok, rejected, other, capacity, burst-capacity)
	}

	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Rejected != int64(burst-capacity) || stats.Completed != int64(capacity) {
		t.Errorf("stats rejected=%d completed=%d, want %d/%d",
			stats.Rejected, stats.Completed, burst-capacity, capacity)
	}

	ts.Client().CloseIdleConnections()
	ts.Close()
	assertNoGoroutineLeak(t, baseline)
}

// TestGracefulShutdownDrains pins the SIGTERM contract: Shutdown must wait
// for the in-flight solve, the solve must still answer 200, and afterwards
// the listener is closed and no goroutines remain.
func TestGracefulShutdownDrains(t *testing.T) {
	baseline := runtime.NumGoroutine()
	inst := testInstance(t, 50, 8, 2)
	cfg, release, started := gatedConfig(t, inst, 1, 0)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	url := "http://" + ln.Addr().String()
	client := &http.Client{}

	solveDone := make(chan int, 1)
	go func() {
		status, _, _ := postSolve(t, client, url, SolveRequest{Algorithm: "G-Order"})
		solveDone <- status
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("solve never started")
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- httpSrv.Shutdown(ctx)
	}()

	// Shutdown must block while the solve is in flight.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) before the in-flight solve finished", err)
	case <-time.After(100 * time.Millisecond):
	}

	release()
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if status := <-solveDone; status != http.StatusOK {
		t.Errorf("drained solve answered %d, want 200", status)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}

	// The listener is down: new requests must fail to connect.
	if _, err := client.Post(url+"/solve", "application/json", strings.NewReader("{}")); err == nil {
		t.Error("request succeeded after shutdown")
	}

	client.CloseIdleConnections()
	assertNoGoroutineLeak(t, baseline)
}

// TestQueuedClientDisconnect covers the admission path where a queued
// client gives up before a worker frees: the handler must unwind with 499
// without ever occupying a worker slot, and count the request as
// abandoned. The handler is driven directly with a cancellable request
// context — net/http only propagates a real client hang-up after its
// background connection read notices, which is too timing-dependent to
// assert on.
func TestQueuedClientDisconnect(t *testing.T) {
	baseline := runtime.NumGoroutine()
	inst := testInstance(t, 50, 8, 2)
	cfg, release, started := gatedConfig(t, inst, 1, 2)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	body, err := json.Marshal(SolveRequest{Algorithm: "G-Global"})
	if err != nil {
		t.Fatal(err)
	}

	// Occupy the single worker.
	first := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body)))
		first <- rec
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("first solve never started")
	}

	// Queue a second request, then cancel its context while it waits for
	// the worker slot.
	reqCtx, cancel := context.WithCancel(context.Background())
	second := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body)).WithContext(reqCtx)
		s.Handler().ServeHTTP(rec, req)
		second <- rec
	}()
	time.Sleep(20 * time.Millisecond) // let it pass admission and block on the worker slot
	cancel()

	select {
	case rec := <-second:
		if rec.Code != statusClientClosedRequest {
			t.Errorf("abandoned request answered %d, want %d", rec.Code, statusClientClosedRequest)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned request never unwound")
	}
	if n := s.metrics.abandoned.Value(); n != 1 {
		t.Errorf("abandoned = %d, want 1", n)
	}

	// The worker was never handed to the abandoned request; the first
	// solve still completes normally.
	release()
	select {
	case rec := <-first:
		if rec.Code != http.StatusOK {
			t.Errorf("first solve answered %d", rec.Code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("first solve never finished")
	}
	assertNoGoroutineLeak(t, baseline)
}

func TestNewRequiresCatalog(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil catalog accepted")
	}
	if _, err := New(Config{Catalog: catalog.New()}); err == nil {
		t.Fatal("empty catalog accepted")
	}
}

func TestStatsPerAlgorithm(t *testing.T) {
	inst := testInstance(t, 80, 10, 2)
	s, err := New(Config{Catalog: catalogFor(t, inst), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, alg := range []string{"G-Order", "G-Global", "G-Global"} {
		if status, _, fail := postSolve(t, ts.Client(), ts.URL, SolveRequest{Algorithm: alg}); status != 200 {
			t.Fatalf("%s: %d (%s)", alg, status, fail.Error)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%v", []AlgoCount{{"G-Global", 2}, {"G-Order", 1}})
	if got := fmt.Sprintf("%v", stats.PerAlgorithm); got != want {
		t.Errorf("per_algorithm %s, want %s", got, want)
	}
	if stats.Completed != 3 || stats.Truncated != 0 {
		t.Errorf("completed=%d truncated=%d, want 3/0", stats.Completed, stats.Truncated)
	}
}
