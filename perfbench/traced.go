package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dmc/internal/core"
	"dmc/internal/estimate"
	"dmc/internal/scenario"
	"dmc/internal/serve"
)

// span is one timed interval at a layer boundary. Spans of one HTTP
// request share its Req id.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	// StartNs and EndNs are nanoseconds since the recorder started.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	// Dispatch names the solve core of a core.solve span, or of an
	// estimate.poll span that re-solved.
	Dispatch string `json:"dispatch,omitempty"`
}

func (s *span) us() float64 { return float64(s.EndNs-s.StartNs) / 1e3 }

// recorder keeps spans in memory while on, and writes them out when
// the run ends. Only the traced run creates one.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(name, parent string, req uint64, start, end time.Time, dispatch string) {
	if !r.on.Load() || req == 0 {
		return
	}
	s := span{Name: name, Parent: parent, Req: req, StartNs: int64(start.Sub(r.epoch)), EndNs: int64(end.Sub(r.epoch)), Dispatch: dispatch}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceHandler wraps the server's handler in the serve.handler span of
// every request carrying an X-Bench-Req id.
func traceHandler(rec *recorder, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.Header.Get("X-Bench-Req"), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, r)
		if err == nil {
			rec.add("serve.handler", "request", id, start, time.Now(), "")
		}
	})
}

// tally counts what the replayed solves report in core.SolveStats.
type tally struct {
	solves, warm, phase1Skip, columns int
	dispatch                          map[core.Dispatch]int
	cgSolves, cgIters                 int
	poolHits, poolAdded               int
	polls, pollResolved               int
}

func (t *tally) add(st core.SolveStats) {
	t.solves++
	t.dispatch[st.Dispatch]++
	t.columns += st.Columns
	if st.Warm {
		t.warm++
	}
	if st.PhaseISkipped {
		t.phase1Skip++
	}
	if st.Dispatch == core.DispatchCG {
		t.cgSolves++
		t.cgIters += st.CGIterations
	}
	t.poolHits += st.PoolHits
	t.poolAdded += st.PoolAdded
}

// replayer re-runs every request body the daemon answered through the
// layers' public functions, on the benchmark's own warm pool, estimator
// adaptors and timeout cache, keyed and drifted exactly as the daemon
// keys them, and times each layer.
type replayer struct {
	rec    *recorder
	pool   *core.WarmPool
	tcache *core.TimeoutCache

	mu    sync.Mutex
	ests  map[string]*estSlot
	tally tally
}

// estSlot is one estimator session's adaptor; an Adaptor is not safe
// for concurrent use.
type estSlot struct {
	mu sync.Mutex
	ad *estimate.Adaptor
}

func newReplayer(rec *recorder) *replayer {
	return &replayer{
		rec:    rec,
		pool:   core.NewWarmPool(),
		tcache: core.NewTimeoutCache(),
		ests:   map[string]*estSlot{},
		tally:  tally{dispatch: map[core.Dispatch]int{}},
	}
}

func (r *replayer) count(fn func(t *tally)) {
	if !r.rec.on.Load() {
		return
	}
	r.mu.Lock()
	fn(&r.tally)
	r.mu.Unlock()
}

// replay runs after an operation's request spans closed: it records
// them, then replays each answered request.
func (r *replayer) replay(o *outcome) error {
	for i, c := range o.calls {
		r.rec.add("request", "", c.id, c.start, c.end, "")
		w := &o.op.wire[i]
		if c.err != nil || c.status != w.want {
			continue
		}
		var err error
		switch {
		case w.body == nil: // DELETE
			r.pool.DropSession(o.op.sess.id)
			r.mu.Lock()
			delete(r.ests, o.op.sess.id)
			r.mu.Unlock()
		case o.op.obs != nil:
			err = r.observe(c.id, w.body)
		default:
			err = r.solve(c.id, w.body)
		}
		if err != nil {
			return fmt.Errorf("replaying %s: %w", describe(o.op), err)
		}
	}
	return nil
}

func decodeSolve(body []byte) (*scenario.SolveRequest, *core.Network, error) {
	var req scenario.SolveRequest
	if err := scenario.Load(bytes.NewReader(body), &req); err != nil {
		return nil, nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, nil, err
	}
	net, err := req.Network.ToNetwork()
	return &req, net, err
}

func (r *replayer) timeouts(req *scenario.SolveRequest, net *core.Network) (*core.Timeouts, error) {
	if req.Objective != scenario.ObjectiveRandom {
		return nil, nil
	}
	var opts core.TimeoutOptions
	if req.Timeout != nil {
		opts = req.Timeout.Options()
	}
	return r.tcache.OptimalTimeouts(net, opts)
}

// solveSession solves as the daemon's session task does: an estimator
// solve binds a fresh adaptor, a plain solve detaches any adaptor and
// re-solves on the session's warm solver, a session-less solve runs
// cold.
func (r *replayer) solveSession(req *scenario.SolveRequest, net *core.Network, to *core.Timeouts) (*core.Solution, error) {
	if req.SessionID == "" {
		switch req.Objective {
		case scenario.ObjectiveMinCost:
			return core.SolveMinCost(net, req.MinQuality)
		case scenario.ObjectiveRandom:
			return core.SolveQualityRandom(net, to)
		}
		return core.SolveQuality(net)
	}
	if req.Estimator {
		ad, err := estimate.NewAdaptor(net)
		if err != nil {
			return nil, err
		}
		sol, _, err := ad.Solution()
		if err != nil {
			return nil, err
		}
		r.mu.Lock()
		r.ests[req.SessionID] = &estSlot{ad: ad}
		r.mu.Unlock()
		return sol, nil
	}
	r.mu.Lock()
	delete(r.ests, req.SessionID)
	r.mu.Unlock()
	switch req.Objective {
	case scenario.ObjectiveMinCost:
		return r.pool.SolveSessionMinCost(req.SessionID, net, req.MinQuality)
	case scenario.ObjectiveRandom:
		return r.pool.SolveSessionRandom(req.SessionID, net, to)
	}
	return r.pool.SolveSession(req.SessionID, net)
}

func encode(sessionID string, resolved bool, sol *core.Solution, to *core.Timeouts) error {
	res := scenario.NewSolveResult(sol, to)
	var buf bytes.Buffer
	return json.NewEncoder(&buf).Encode(scenario.SolveResponse{SessionID: sessionID, Resolved: resolved, Result: &res})
}

func (r *replayer) solve(id uint64, body []byte) error {
	t0 := time.Now()
	req, net, err := decodeSolve(body)
	if err != nil {
		return err
	}
	t1 := time.Now()
	to, err := r.timeouts(req, net)
	if err != nil {
		return err
	}
	t2 := time.Now()
	sol, err := r.solveSession(req, net, to)
	if err != nil {
		return err
	}
	t3 := time.Now()
	if err := encode(req.SessionID, true, sol, to); err != nil {
		return err
	}
	t4 := time.Now()
	r.rec.add("scenario.decode", "request", id, t0, t1, "")
	if to != nil {
		r.rec.add("core.timeouts", "request", id, t1, t2, "")
	}
	r.rec.add("core.solve", "request", id, t2, t3, string(sol.Stats.Dispatch))
	r.rec.add("scenario.encode", "request", id, t3, t4, "")
	r.count(func(t *tally) { t.add(sol.Stats) })
	return nil
}

// poll folds an observe report into the session's adaptor and polls
// it, as the daemon's observe handler and poll task do.
func (r *replayer) poll(req *scenario.ObserveRequest) (*core.Solution, bool, error) {
	r.mu.Lock()
	slot := r.ests[req.SessionID]
	r.mu.Unlock()
	if slot == nil {
		return nil, false, fmt.Errorf("session %q has no estimator", req.SessionID)
	}
	slot.mu.Lock()
	defer slot.mu.Unlock()
	foldObservations(slot.ad, req)
	return slot.ad.Solution()
}

func (r *replayer) observe(id uint64, body []byte) error {
	t0 := time.Now()
	var req scenario.ObserveRequest
	if err := scenario.Load(bytes.NewReader(body), &req); err != nil {
		return err
	}
	t1 := time.Now()
	sol, resolved, err := r.poll(&req)
	if err != nil {
		return err
	}
	t2 := time.Now()
	if err := encode(req.SessionID, resolved, sol, nil); err != nil {
		return err
	}
	t3 := time.Now()
	var dispatch string
	if resolved {
		dispatch = string(sol.Stats.Dispatch)
	}
	r.rec.add("scenario.decode", "request", id, t0, t1, "")
	r.rec.add("estimate.poll", "request", id, t1, t2, dispatch)
	r.rec.add("scenario.encode", "request", id, t2, t3, "")
	r.count(func(t *tally) {
		t.polls++
		if resolved {
			t.pollResolved++
			t.add(sol.Stats)
		}
	})
	return nil
}

// serverSampler polls the in-process server's metrics during the traced
// pass for what only a time series shows: the largest follower lag,
// and the journal's growth in bytes, a gauge each compaction resets.
type serverSampler struct {
	srv          *serve.Server
	stop, done   chan struct{}
	lagMax       int64
	bytes, prevB int64
}

func startSampler(srv *serve.Server) *serverSampler {
	s := &serverSampler{srv: srv, stop: make(chan struct{}), done: make(chan struct{})}
	if d := srv.Metrics().Durability; d != nil {
		s.prevB = d.JournalBytes
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.sample()
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *serverSampler) sample() {
	m := s.srv.Metrics()
	if m.Replication != nil {
		for _, f := range m.Replication.Followers {
			s.lagMax = max(s.lagMax, f.LagBytes)
		}
	}
	d := m.Durability
	if d == nil {
		return
	}
	// The byte count restarts at each compaction; then the new
	// journal's size is a lower bound on the growth since the last
	// sample.
	if d.JournalBytes >= s.prevB {
		s.bytes += d.JournalBytes - s.prevB
	} else {
		s.bytes += d.JournalBytes
	}
	s.prevB = d.JournalBytes
}

func (s *serverSampler) finish() {
	close(s.stop)
	<-s.done
}

// shardTotals sums the per-shard counters the per-layer metrics read.
type shardTotals struct {
	solves, waves, warm, rejected, shed uint64
	snapshots, journalErrors, chunks    uint64
	syncTimeouts, journalRecords        uint64
}

func totals(m serve.Metrics) shardTotals {
	var t shardTotals
	for _, sh := range m.Shards {
		t.solves += sh.Solves
		t.waves += sh.Waves
		t.warm += sh.WarmSolves
		t.rejected += sh.Rejected
		t.shed += sh.ShedExpired
	}
	if d := m.Durability; d != nil {
		t.snapshots, t.journalErrors, t.journalRecords = d.Snapshots, d.JournalErrors, d.JournalRecords
	}
	if r := m.Replication; r != nil {
		t.chunks, t.syncTimeouts = r.ChunksServed, r.SyncTimeouts
	}
	return t
}

// runTraced serves the workload's configuration in-process behind a
// loopback httptest server (with the real dmcd binary as the -follow
// standby on durable workloads), primes it, then runs the open-loop
// schedule twice at the same rate: first traced over the end-to-end
// run's open-loop stream, replaying every request through the layers,
// then untraced over the following stream for the overhead comparison.
func runTraced(o *options, w *workload, p *plan, stateDir string) (*result, error) {
	cfg := serve.Config{}
	if w.durable {
		if err := os.MkdirAll(stateDir, 0o755); err != nil {
			return nil, err
		}
		defer os.RemoveAll(stateDir)
		cfg.StateDir, cfg.ReplAck, cfg.JournalNoSync = filepath.Join(stateDir, "primary"), serve.ReplAckAsync, true
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	rec := &recorder{epoch: time.Now()}
	hs := httptest.NewServer(traceHandler(rec, srv.Handler()))
	defer hs.Close()
	addr := strings.TrimPrefix(hs.URL, "http://")
	var fol *proc
	if w.durable {
		if fol, err = spawn(o.dmcd, "-state-dir", filepath.Join(stateDir, "follower"), "-follow", hs.URL); err != nil {
			return nil, err
		}
		defer func() {
			// Wake the follower's parked long poll so hs.Close is not
			// held up by it, then stop the follower.
			srv.QuiesceReplication()
			fol.stop()
		}()
	}

	rp := newReplayer(rec)
	var replayErr error
	var replayMu sync.Mutex
	after := func(out *outcome) {
		if err := rp.replay(out); err != nil {
			replayMu.Lock()
			if replayErr == nil {
				replayErr = err
			}
			replayMu.Unlock()
		}
	}
	conns := runtime.NumCPU()
	primed, _, _ := (&runner{addr: addr, conns: conns, after: after}).closed(p.prime, 0)

	m0 := totals(srv.Metrics())
	h0, miss0 := rp.tcache.Stats()
	var fcpu0, fcpu1 time.Duration
	if fol != nil {
		if fcpu0, err = fol.cpu(); err != nil {
			return nil, err
		}
	}
	smp := startSampler(srv)
	rec.on.Store(true)
	var ids atomic.Uint64
	traced := (&runner{addr: addr, conns: conns, ids: &ids, after: after}).open(p.stream, p.openN, w.rate)
	rec.on.Store(false)
	smp.finish()
	m1 := totals(srv.Metrics())
	h1, miss1 := rp.tcache.Stats()
	if fol != nil {
		if fcpu1, err = fol.cpu(); err != nil {
			return nil, err
		}
	}

	_, closedDur := sizes{short: o.short, seconds: float64(o.seconds)}.phases()
	nUntraced := min(int(w.rate*closedDur.Seconds()), len(p.stream)-p.openN)
	untraced := (&runner{addr: addr, conns: conns}).open(p.stream[p.openN:], nUntraced, w.rate)

	all := append(append(append([]*outcome(nil), primed...), traced...), untraced...)
	failed, firstErr := checkAll(all)
	correct := failed == 0 && replayErr == nil
	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d operations failed; first: %v\n", w.name, failed, len(all), firstErr)
	}
	if replayErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, replayErr)
	}
	if err := resolveSample(rand.New(rand.NewPCG(o.seed, 7)), all, 32); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: oracle: %v\n", w.name, err)
		correct = false
	}
	if fol != nil {
		if err := sameSessions(addr, fol.addr, len(p.sessions)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: oracle: %v\n", w.name, err)
			correct = false
		}
	}

	allocs := measureAllocs(rp, traced)
	spansPath := filepath.Join(o.workDir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, o.seed))
	if err := rec.write(spansPath); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d spans written to %s\n", w.name, len(rec.spans), spansPath)

	lm := layerMetrics(rec.spans, &rp.tally, traced, untraced)
	var calls int
	for _, out := range traced {
		calls += len(out.calls)
	}
	perReq := func(v float64) float64 { return v / float64(max(calls, 1)) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	lm["serve.wave_size_mean"] = metricValue{ratio(float64(m1.solves-m0.solves), float64(m1.waves-m0.waves)), "solves"}
	lm["serve.warm_hit_rate"] = metricValue{ratio(float64(m1.warm-m0.warm), float64(m1.solves-m0.solves)), "ratio"}
	lm["serve.rejected"] = metricValue{float64(m1.rejected - m0.rejected), "count"}
	lm["serve.shed_expired"] = metricValue{float64(m1.shed - m0.shed), "count"}
	lm["core.timeout_cache_hit_ratio"] = metricValue{ratio(float64(h1-h0), float64(h1-h0+miss1-miss0)), "ratio"}
	lm["persist.records_per_req"] = metricValue{perReq(float64(m1.journalRecords - m0.journalRecords)), "records"}
	lm["persist.bytes_per_req"] = metricValue{perReq(float64(smp.bytes)), "bytes"}
	lm["persist.snapshots"] = metricValue{float64(m1.snapshots - m0.snapshots), "count"}
	lm["persist.journal_errors"] = metricValue{float64(m1.journalErrors - m0.journalErrors), "count"}
	lm["repl.chunks_per_req"] = metricValue{perReq(float64(m1.chunks - m0.chunks)), "chunks"}
	lm["repl.sync_timeouts"] = metricValue{float64(m1.syncTimeouts - m0.syncTimeouts), "count"}
	lm["repl.lag_bytes_max"] = metricValue{float64(smp.lagMax), "bytes"}
	lm["repl.follower_cpu_us_per_req"] = metricValue{perReq(float64(fcpu1-fcpu0) / float64(time.Microsecond)), "us"}
	for k, v := range allocs {
		lm[k] = v
	}
	return &result{Correct: correct, Attempted: len(all), Failed: failed, Metrics: lm}, nil
}
