package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dmc/internal/core"
	"dmc/internal/estimate"
	"dmc/internal/fault"
	"dmc/internal/scenario"
)

// testNetwork builds a deterministic-delay wire network with the given
// path count.
func testNetwork(rng *rand.Rand, paths int) scenario.Network {
	n := scenario.Network{
		LifetimeMs:    150,
		Transmissions: 2,
	}
	var total float64
	for i := 0; i < paths; i++ {
		bw := 1 + 2*rng.Float64()
		total += bw
		n.Paths = append(n.Paths, scenario.Path{
			Name:          fmt.Sprintf("p%d", i),
			BandwidthMbps: bw,
			DelayMs:       20 + 60*rng.Float64(),
			Loss:          0.01 + 0.09*rng.Float64(),
			Cost:          0.5 + rng.Float64(),
		})
	}
	n.RateMbps = 0.6 * total
	return n
}

// driftWire perturbs loss and bandwidth by up to ±maxRel, keeping the
// same shape so session solvers stay warm.
func driftWire(rng *rand.Rand, n scenario.Network, maxRel float64) scenario.Network {
	out := n
	out.Paths = append([]scenario.Path(nil), n.Paths...)
	rel := func() float64 { return 1 + maxRel*(2*rng.Float64()-1) }
	for i := range out.Paths {
		out.Paths[i].Loss = math.Min(0.5, out.Paths[i].Loss*rel())
		out.Paths[i].BandwidthMbps *= rel()
	}
	return out
}

func toCore(t *testing.T, n scenario.Network) *core.Network {
	t.Helper()
	cn, err := n.ToNetwork()
	if err != nil {
		t.Fatalf("ToNetwork: %v", err)
	}
	return cn
}

// postJSON posts body to url and returns the status plus decoded body.
func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, out
}

func solveOK(t *testing.T, base string, req scenario.SolveRequest) scenario.SolveResponse {
	t.Helper()
	status, body := postJSON(t, base+"/v1/solve", req)
	if status != http.StatusOK {
		t.Fatalf("/v1/solve status %d: %s", status, body)
	}
	var resp scenario.SolveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	if resp.Result == nil {
		t.Fatalf("solve response has no result: %s", body)
	}
	return resp
}

func newTestServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts.URL
}

// TestServeFleetDrift drives a 64-session fleet over HTTP through
// solve → drift → re-solve rounds with concurrent requests (so waves
// coalesce), asserting every optimum matches a per-session library
// Resolve trajectory to 1e-6 and that every re-solve after the first
// round is served warm from the session's keyed solver.
func TestServeFleetDrift(t *testing.T) {
	// A wave takes only what queued while its worker was busy, and these
	// solves take microseconds: a 1ms serve.exec latency fault gives each
	// one the duration of a heavy solve, so the concurrent rounds queue
	// up behind it and coalesce.
	defer fault.Deactivate()
	fault.Activate(always("serve.exec", fault.Latency, time.Millisecond))
	srv, base := newTestServer(t, Config{Shards: 4})
	rng := rand.New(rand.NewPCG(7, 1))

	const fleet = 64
	nets := make([]scenario.Network, fleet)
	refs := make([]*core.Solver, fleet)
	for i := range nets {
		nets[i] = testNetwork(rng, 2+i%3)
		refs[i] = core.NewSolver()
	}

	for round := 0; round < 4; round++ {
		want := make([]float64, fleet)
		for i := range nets {
			if round > 0 {
				nets[i] = driftWire(rng, nets[i], 0.25)
			}
			sol, err := refs[i].Resolve(toCore(t, nets[i]))
			if err != nil {
				t.Fatalf("round %d session %d reference: %v", round, i, err)
			}
			want[i] = sol.Quality
		}

		got := make([]scenario.SolveResponse, fleet)
		errs := make([]error, fleet)
		var wg sync.WaitGroup
		for i := 0; i < fleet; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				status, body := postJSON(t, base+"/v1/solve", scenario.SolveRequest{
					Solve:     scenario.Solve{Network: nets[i]},
					SessionID: fmt.Sprintf("fleet-%03d", i),
				})
				if status != http.StatusOK {
					errs[i] = fmt.Errorf("status %d: %s", status, body)
					return
				}
				errs[i] = json.Unmarshal(body, &got[i])
			}(i)
		}
		wg.Wait()

		for i := 0; i < fleet; i++ {
			if errs[i] != nil {
				t.Fatalf("round %d session %d: %v", round, i, errs[i])
			}
			r := got[i].Result
			if math.Abs(r.Quality-want[i]) > 1e-6 {
				t.Errorf("round %d session %d quality %.9f, library Resolve %.9f", round, i, r.Quality, want[i])
			}
			if round > 0 && !r.Warm {
				t.Errorf("round %d session %d re-solve was not warm", round, i)
			}
		}
	}

	if n := srv.Sessions(); n != fleet {
		t.Errorf("Sessions() = %d, want %d", n, fleet)
	}
	m := srv.Metrics()
	var waves, solves uint64
	for _, sm := range m.Shards {
		waves += sm.Waves
		solves += sm.Solves
	}
	if solves != 4*fleet {
		t.Errorf("metrics count %d solves, want %d", solves, 4*fleet)
	}
	if waves >= solves {
		t.Errorf("no coalescing: %d waves for %d solves", waves, solves)
	}
	if m.Sessions != fleet {
		t.Errorf("metrics report %d sessions, want %d", m.Sessions, fleet)
	}
}

// TestServeObjectives checks all three objectives round-trip over HTTP
// with results matching the library entry points.
func TestServeObjectives(t *testing.T) {
	_, base := newTestServer(t, Config{Shards: 1})
	rng := rand.New(rand.NewPCG(11, 2))
	wire := testNetwork(rng, 3)
	net := toCore(t, wire)

	t.Run("quality one-shot", func(t *testing.T) {
		want, err := core.SolveQuality(net)
		if err != nil {
			t.Fatal(err)
		}
		resp := solveOK(t, base, scenario.SolveRequest{Solve: scenario.Solve{Network: wire}})
		if math.Abs(resp.Result.Quality-want.Quality) > 1e-6 {
			t.Errorf("quality %.9f, library %.9f", resp.Result.Quality, want.Quality)
		}
		if !resp.Resolved || resp.SessionID != "" {
			t.Errorf("one-shot response: resolved=%v session=%q", resp.Resolved, resp.SessionID)
		}
	})

	t.Run("mincost session", func(t *testing.T) {
		floor := 0.9 * mustQuality(t, net)
		want, err := core.SolveMinCost(net, floor)
		if err != nil {
			t.Fatal(err)
		}
		resp := solveOK(t, base, scenario.SolveRequest{
			Solve:     scenario.Solve{Network: wire, Objective: scenario.ObjectiveMinCost, MinQuality: floor},
			SessionID: "obj-mincost",
		})
		if math.Abs(resp.Result.CostPerSecond-want.Cost()) > 1e-6*math.Max(1, want.Cost()) {
			t.Errorf("cost %.9f, library %.9f", resp.Result.CostPerSecond, want.Cost())
		}
		if resp.Result.Quality < floor-1e-9 {
			t.Errorf("served quality %.9f below floor %.9f", resp.Result.Quality, floor)
		}
	})

	t.Run("random session", func(t *testing.T) {
		gwire := wire
		gwire.Paths = append([]scenario.Path(nil), wire.Paths...)
		for i := range gwire.Paths {
			gwire.Paths[i].DelayMs = 0
			gwire.Paths[i].DelayGamma = &scenario.Gamma{LocMs: 10 + 5*float64(i), Shape: 2, ScaleMs: 6}
		}
		gnet := toCore(t, gwire)
		spec := scenario.TimeoutSpec{GridStepMs: 5, RefineLevels: 2, ConvolutionNodes: 200}
		to, err := core.OptimalTimeouts(gnet, spec.Options())
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.SolveQualityRandom(gnet, to)
		if err != nil {
			t.Fatal(err)
		}
		resp := solveOK(t, base, scenario.SolveRequest{
			Solve:     scenario.Solve{Network: gwire, Objective: scenario.ObjectiveRandom, Timeout: &spec},
			SessionID: "obj-random",
		})
		if math.Abs(resp.Result.Quality-want.Quality) > 1e-6 {
			t.Errorf("quality %.9f, library %.9f", resp.Result.Quality, want.Quality)
		}
		if len(resp.Result.TimeoutsMs) == 0 {
			t.Error("random objective response carries no timeout table")
		}
	})
}

func mustQuality(t *testing.T, n *core.Network) float64 {
	t.Helper()
	sol, err := core.SolveQuality(n)
	if err != nil {
		t.Fatal(err)
	}
	return sol.Quality
}

// TestServeEstimator drives a session estimator feed over HTTP and
// checks it against a reference estimate.Adaptor fed identically.
func TestServeEstimator(t *testing.T) {
	_, base := newTestServer(t, Config{Shards: 1})
	rng := rand.New(rand.NewPCG(3, 9))
	wire := testNetwork(rng, 3)

	ref, err := estimate.NewAdaptor(toCore(t, wire))
	if err != nil {
		t.Fatal(err)
	}
	refSol, _, err := ref.Solution()
	if err != nil {
		t.Fatal(err)
	}

	resp := solveOK(t, base, scenario.SolveRequest{
		Solve:     scenario.Solve{Network: wire},
		SessionID: "est-1",
		Estimator: true,
	})
	if math.Abs(resp.Result.Quality-refSol.Quality) > 1e-6 {
		t.Errorf("estimator bootstrap quality %.9f, reference %.9f", resp.Result.Quality, refSol.Quality)
	}

	observe := func(obs []scenario.PathObservation) scenario.SolveResponse {
		t.Helper()
		status, body := postJSON(t, base+"/v1/observe", scenario.ObserveRequest{SessionID: "est-1", Paths: obs})
		if status != http.StatusOK {
			t.Fatalf("/v1/observe status %d: %s", status, body)
		}
		var out scenario.SolveResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	feedRef := func(obs []scenario.PathObservation) (*core.Solution, bool) {
		t.Helper()
		for _, p := range obs {
			for i := 0; i < p.Sent; i++ {
				ref.ObserveSend(p.Path)
			}
			for i := 0; i < p.Lost; i++ {
				ref.ObserveLoss(p.Path)
			}
			for _, ms := range p.RTTMs {
				ref.ObserveRTT(p.Path, time.Duration(ms*float64(time.Millisecond)))
			}
		}
		sol, resolved, err := ref.Solution()
		if err != nil {
			t.Fatal(err)
		}
		return sol, resolved
	}

	// Heavy loss on path 0 must drift the estimate and trigger a warm
	// re-solve; a tiny follow-up batch must not.
	for step, obs := range [][]scenario.PathObservation{
		{{Path: 0, Sent: 400, Lost: 120, RTTMs: []float64{40, 44, 39}}, {Path: 1, Sent: 400, Lost: 8}},
		{{Path: 1, Sent: 2, Lost: 0}},
	} {
		got := observe(obs)
		wantSol, wantResolved := feedRef(obs)
		if got.Resolved != wantResolved {
			t.Errorf("step %d resolved=%v, reference %v", step, got.Resolved, wantResolved)
		}
		if math.Abs(got.Result.Quality-wantSol.Quality) > 1e-6 {
			t.Errorf("step %d quality %.9f, reference %.9f", step, got.Result.Quality, wantSol.Quality)
		}
	}

	// Estimator preconditions.
	status, _ := postJSON(t, base+"/v1/solve", scenario.SolveRequest{
		Solve: scenario.Solve{Network: wire}, Estimator: true,
	})
	if status != http.StatusBadRequest {
		t.Errorf("estimator without session: status %d, want 400", status)
	}
	status, _ = postJSON(t, base+"/v1/solve", scenario.SolveRequest{
		Solve:     scenario.Solve{Network: wire, Objective: scenario.ObjectiveMinCost},
		SessionID: "est-2", Estimator: true,
	})
	if status != http.StatusBadRequest {
		t.Errorf("estimator with mincost: status %d, want 400", status)
	}
	status, _ = postJSON(t, base+"/v1/observe", scenario.ObserveRequest{
		SessionID: "nobody", Paths: []scenario.PathObservation{{Path: 0, Sent: 1}},
	})
	if status != http.StatusNotFound {
		t.Errorf("observe unknown session: status %d, want 404", status)
	}
	status, _ = postJSON(t, base+"/v1/observe", scenario.ObserveRequest{
		SessionID: "est-1", Paths: []scenario.PathObservation{{Path: 99, Sent: 1}},
	})
	if status != http.StatusBadRequest {
		t.Errorf("observe out-of-range path: status %d, want 400", status)
	}

	// A plain solve supersedes the feed: observe now reports 409.
	solveOK(t, base, scenario.SolveRequest{Solve: scenario.Solve{Network: wire}, SessionID: "est-1"})
	status, _ = postJSON(t, base+"/v1/observe", scenario.ObserveRequest{
		SessionID: "est-1", Paths: []scenario.PathObservation{{Path: 0, Sent: 1}},
	})
	if status != http.StatusConflict {
		t.Errorf("observe after plain solve: status %d, want 409", status)
	}
}

// TestServeObserveHugeCounts checks observation counts fold in O(1):
// an unauthenticated body with astronomically large sent/lost counts
// must answer immediately (not spin a core under the session mutex)
// and feed the estimator exactly as the equivalent count-based calls.
func TestServeObserveHugeCounts(t *testing.T) {
	_, base := newTestServer(t, Config{Shards: 1})
	rng := rand.New(rand.NewPCG(19, 6))
	wire := testNetwork(rng, 2)

	ref, err := estimate.NewAdaptor(toCore(t, wire))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ref.Solution(); err != nil {
		t.Fatal(err)
	}

	solveOK(t, base, scenario.SolveRequest{
		Solve:     scenario.Solve{Network: wire},
		SessionID: "huge",
		Estimator: true,
	})

	const sent, lost = 1 << 60, 1 << 58
	start := time.Now()
	status, body := postJSON(t, base+"/v1/observe", scenario.ObserveRequest{
		SessionID: "huge",
		Paths:     []scenario.PathObservation{{Path: 0, Sent: sent, Lost: lost}},
	})
	if status != http.StatusOK {
		t.Fatalf("huge-count observe: status %d: %s", status, body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("huge-count observe took %v; counts must not buy per-unit work", elapsed)
	}
	var got scenario.SolveResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	ref.ObserveSends(0, sent)
	ref.ObserveLosses(0, lost)
	refSol, refResolved, err := ref.Solution()
	if err != nil {
		t.Fatal(err)
	}
	if got.Resolved != refResolved {
		t.Errorf("resolved=%v, reference %v", got.Resolved, refResolved)
	}
	if math.Abs(got.Result.Quality-refSol.Quality) > 1e-6 {
		t.Errorf("quality %.9f, reference %.9f", got.Result.Quality, refSol.Quality)
	}
}

// TestSolveStatus pins the error→status mapping: client-caused verdicts
// are 4xx, unrecognized (server-side) failures are 500.
func TestSolveStatus(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{fmt.Errorf("wrapped: %w", core.ErrInfeasible), http.StatusUnprocessableEntity},
		{core.ErrRandomNeedsTwoTransmissions, http.StatusUnprocessableEntity},
		{errDropped, http.StatusGone},
		{errClosed, http.StatusServiceUnavailable},
		{fmt.Errorf("core: solving LP: numerical breakdown"), http.StatusInternalServerError},
	} {
		if got := solveStatus(tc.err); got != tc.want {
			t.Errorf("solveStatus(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestEnqueueAfterClose checks the admission gate: an enqueue racing
// past a handler's closed check still fails with errClosed once Close
// has run, rather than parking a task no worker will ever execute.
func TestEnqueueAfterClose(t *testing.T) {
	srv, err := New(Config{Shards: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv.Close()
	tk := &task{done: make(chan taskResult, 1)}
	if err := srv.enqueue(srv.shards[0], tk); err != errClosed {
		t.Fatalf("enqueue after Close: err=%v, want errClosed", err)
	}
}

// holdShard parks shard 0's worker inside a first solve on a serve.exec
// latency fault, queues n more solves behind it, and waits until all n
// sit in the shard queue. The returned function waits for every
// response and returns the statuses and bodies, the held solve first.
// The caller deactivates the fault.
func holdShard(t *testing.T, srv *Server, url string, wire scenario.Network, n int, hold time.Duration) func() ([]int, [][]byte) {
	t.Helper()
	fault.Activate(always("serve.exec", fault.Latency, hold))
	statuses := make([]int, n+1)
	bodies := make([][]byte, n+1)
	var wg sync.WaitGroup
	post := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf, _ := json.Marshal(scenario.SolveRequest{
				Solve:     scenario.Solve{Network: wire},
				SessionID: fmt.Sprintf("held-%d", i),
			})
			resp, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader(buf))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}()
	}
	waitFor := func(what string, cond func() bool) {
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	post(0)
	waitFor("the first solve to reach exec", func() bool { return fault.Stats()["serve.exec"].Fired >= 1 })
	for i := 1; i <= n; i++ {
		post(i)
	}
	waitFor(fmt.Sprintf("%d queued tasks", n), func() bool { return srv.Metrics().Shards[0].QueueDepth == n })
	return func() ([]int, [][]byte) {
		wg.Wait()
		return statuses, bodies
	}
}

// TestServeWaveCoalescesWhileBusy checks natural batching: tasks that
// queue while the shard worker is busy form the next wave together (no
// timer needed to coalesce them), split into waves of at most MaxBatch.
func TestServeWaveCoalescesWhileBusy(t *testing.T) {
	defer fault.Deactivate()
	const n = 8
	for _, tc := range []struct{ maxBatch, queuedWaves int }{
		{0, 1}, // default cap (256) ≥ n: one wave takes the whole queue
		{3, 3}, // ⌈8/3⌉
	} {
		t.Run(fmt.Sprintf("max-batch=%d", tc.maxBatch), func(t *testing.T) {
			srv, base := newTestServer(t, Config{Shards: 1, MaxBatch: tc.maxBatch})
			wire := testNetwork(rand.New(rand.NewPCG(11, 3)), 3)
			wait := holdShard(t, srv, base, wire, n, 100*time.Millisecond)
			fault.Deactivate()
			statuses, bodies := wait()
			for i, st := range statuses {
				if st != http.StatusOK {
					t.Errorf("request %d: status %d: %s", i, st, bodies[i])
				}
			}
			sm := metricsFor(t, base).Shards[0]
			if sm.Solves != n+1 {
				t.Errorf("solves = %d, want %d", sm.Solves, n+1)
			}
			if want := uint64(1 + tc.queuedWaves); sm.Waves != want {
				t.Errorf("waves = %d, want %d (the held solve alone, then the queue in waves of ≤%d)", sm.Waves, want, srv.cfg.MaxBatch)
			}
		})
	}
}

// TestServeGracefulShutdown checks Close drains in-flight waves: every
// request admitted before Close still gets its solution, and requests
// after Close get 503.
func TestServeGracefulShutdown(t *testing.T) {
	defer fault.Deactivate()
	srv, err := New(Config{Shards: 1, MaxBatch: 64})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	rng := rand.New(rand.NewPCG(5, 5))
	wire := testNetwork(rng, 3)

	// Hold the worker in a slow first solve with the rest admitted and
	// queued behind it, then shut down: the queue must drain, not be
	// abandoned.
	wait := holdShard(t, srv, ts.URL, wire, 7, 100*time.Millisecond)
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	statuses, bodies := wait()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the waves drained")
	}

	for i, st := range statuses {
		if st != http.StatusOK {
			t.Errorf("request %d admitted before Close got status %d: %s", i, st, bodies[i])
		}
	}

	status, _ := postJSON(t, ts.URL+"/v1/solve", scenario.SolveRequest{Solve: scenario.Solve{Network: wire}})
	if status != http.StatusServiceUnavailable {
		t.Errorf("solve after Close: status %d, want 503", status)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after Close: status %d, want 503", resp.StatusCode)
	}
	srv.Close() // idempotent
}

// TestServeAdmission saturates a 1-deep queue with slow cold solves and
// checks backpressure: 429s with a Retry-After header, a rejected
// counter on /metrics, and no hung or dropped requests.
func TestServeAdmission(t *testing.T) {
	srv, base := newTestServer(t, Config{Shards: 1, MaxQueue: 1, MaxBatch: 1})
	rng := rand.New(rand.NewPCG(13, 4))
	wire := testNetwork(rng, 7)
	wire.Transmissions = 3

	const n = 16
	var wg sync.WaitGroup
	var mu sync.Mutex
	counts := map[int]int{}
	var retryAfter string
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf, _ := json.Marshal(scenario.SolveRequest{
				Solve:     scenario.Solve{Network: wire},
				SessionID: fmt.Sprintf("sat-%d", i),
			})
			resp, err := http.Post(base+"/v1/solve", "application/json", bytes.NewReader(buf))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			mu.Lock()
			counts[resp.StatusCode]++
			if resp.StatusCode == http.StatusTooManyRequests {
				retryAfter = resp.Header.Get("Retry-After")
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()

	if counts[http.StatusOK]+counts[http.StatusTooManyRequests] != n {
		t.Fatalf("unexpected status mix: %v", counts)
	}
	if counts[http.StatusTooManyRequests] == 0 {
		t.Skip("queue never saturated on this machine; admission path not exercised")
	}
	if retryAfter == "" {
		t.Error("429 response missing Retry-After header")
	}
	m := srv.Metrics()
	if m.Shards[0].Rejected == 0 {
		t.Error("metrics report zero rejected despite 429 responses")
	}
	if int(m.Shards[0].Solves) != counts[http.StatusOK] {
		t.Errorf("metrics count %d solves, want %d", m.Shards[0].Solves, counts[http.StatusOK])
	}
}

// TestServeHTTPErrors covers the remaining error mappings.
func TestServeHTTPErrors(t *testing.T) {
	_, base := newTestServer(t, Config{Shards: 1})
	rng := rand.New(rand.NewPCG(17, 8))
	wire := testNetwork(rng, 2)

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(base+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if st := post(`{not json`); st != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", st)
	}
	if st := post(`{"network": {}, "objective": "maximize-vibes"}`); st != http.StatusBadRequest {
		t.Errorf("unknown objective: status %d, want 400", st)
	}
	if st := post(`{"network": {"rate_mbps": -1}}`); st != http.StatusBadRequest {
		t.Errorf("invalid network: status %d, want 400", st)
	}

	// Unattainable quality floor: the solver's infeasibility verdict
	// surfaces as 422.
	status, body := postJSON(t, base+"/v1/solve", scenario.SolveRequest{
		Solve: scenario.Solve{Network: wire, Objective: scenario.ObjectiveMinCost, MinQuality: 1},
	})
	if status != http.StatusUnprocessableEntity {
		t.Errorf("infeasible floor: status %d, want 422 (%s)", status, body)
	}
	var eresp scenario.ErrorResponse
	if err := json.Unmarshal(body, &eresp); err != nil || eresp.Error == "" {
		t.Errorf("422 body is not an error document: %s", body)
	}

	// Session drop: 204, and the session is gone from the registry.
	solveOK(t, base, scenario.SolveRequest{Solve: scenario.Solve{Network: wire}, SessionID: "gone"})
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/session/gone", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("DELETE session: status %d, want 204", resp.StatusCode)
	}
	status, _ = postJSON(t, base+"/v1/observe", scenario.ObserveRequest{
		SessionID: "gone", Paths: []scenario.PathObservation{{Path: 0, Sent: 1}},
	})
	if status != http.StatusNotFound {
		t.Errorf("observe dropped session: status %d, want 404", status)
	}
	// A dropped session can be re-created by its next solve.
	solveOK(t, base, scenario.SolveRequest{Solve: scenario.Solve{Network: wire}, SessionID: "gone"})

	// Metrics endpoint round-trips.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatalf("decode /metrics: %v", err)
	}
	if len(m.Shards) != 1 || m.Shards[0].Solves == 0 || m.UptimeSec <= 0 {
		t.Errorf("implausible metrics: %+v", m)
	}
}
