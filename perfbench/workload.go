package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"dmc/internal/core"
	"dmc/internal/experiments"
	"dmc/internal/scenario"
)

// workload is one traffic mix: how to start the daemon, the open-loop
// rate calibrated for it, and how to generate the seeded inputs.
type workload struct {
	name string
	// rate is the open-loop arrival rate in operations per second, a
	// fifth to two fifths of the closed-loop throughput on the host the
	// benchmark was calibrated on (see README.md): low enough that the
	// host's CPU steal does not tip the open loop into a growing backlog.
	rate float64
	// durable starts the primary with -state-dir, -repl-ack async and
	// -journal-nosync plus one -follow standby. Sync acks and per-record
	// fsyncs would put the virtual disk's flush time on every request,
	// and on the calibration host that swings with the host's load far
	// beyond any bound (see README.md).
	durable bool
	// gen draws the sessions with their priming operations, and returns
	// the generator of the timed stream's i-th operation.
	gen func(rng *rand.Rand, sz sizes) (p *plan, next func(i int) *op)
}

// sizes scales a workload: the full benchmark or the short smoke run,
// and the measured seconds split between the two timed phases.
type sizes struct {
	short   bool
	seconds float64
}

// phases splits the measured time: 40% open loop, 60% closed loop.
func (s sizes) phases() (open, closed time.Duration) {
	total := time.Duration(s.seconds * float64(time.Second))
	return total * 4 / 10, total * 6 / 10
}

func (s sizes) n(full, short int) int {
	if s.short {
		return short
	}
	return full
}

// workloads are the traffic mixes. BENCHMARK.json declares the first
// two; cg-resolve stays runnable by name because the daemon fails its
// oracle (see README.md, "Defect found by the oracle").
var workloads = []*workload{
	{name: "tiny-fleet", rate: 600, gen: genTinyFleet},
	{name: "durable-async", rate: 200, durable: true, gen: genDurable},
	{name: "cg-resolve", rate: 300, gen: genCGResolve},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

type opKind uint8

const (
	// opSolve is one POST /v1/solve (session-keyed or one-shot).
	opSolve opKind = iota
	// opObserve is one POST /v1/observe on an estimator session.
	opObserve
	// opDropCreate is DELETE /v1/session/{id} followed, on the same
	// connection, by the POST /v1/solve that re-creates the session.
	opDropCreate
)

// session is one session the workload drives.
type session struct {
	id        string
	base      *core.Network
	objective string
	estimator bool
}

// op is one scheduled operation: one or two HTTP requests, prebuilt.
type op struct {
	kind  opKind
	sess  *session // nil for a session-less one-shot solve
	solve *scenario.SolveRequest
	obs   *scenario.ObserveRequest
	wire  []wireReq
}

// wireReq is one HTTP/1.1 request split where a trace header can be
// spliced in: head ends after the last header line, tail is the blank
// line plus the body.
type wireReq struct {
	head, tail []byte
	body       []byte
	want       int // the expected status
}

// plan is a workload's generated input: the priming operations (one
// per session) and the timed stream that the open-loop phase and then
// the closed-loop phase consume in order.
type plan struct {
	sessions []*session
	prime    []*op
	stream   []*op
	// openN is how many stream operations the open-loop phase is
	// scheduled to send; the closed-loop phase takes the rest.
	openN int
}

// maxDrift bounds every drifted coefficient to ±10% of the session's
// base network.
const maxDrift = 0.10

func postReq(path string, v any) wireReq {
	body, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always marshal
	}
	head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: dmcd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n", path, len(body))
	return wireReq{head: []byte(head), tail: append([]byte("\r\n"), body...), body: body, want: 200}
}

func deleteReq(id string) wireReq {
	head := fmt.Sprintf("DELETE /v1/session/%s HTTP/1.1\r\nHost: dmcd\r\n", id)
	return wireReq{head: []byte(head), tail: []byte("\r\n"), want: 204}
}

func solveOp(s *session, n *core.Network, minQuality float64) *op {
	req := &scenario.SolveRequest{Solve: scenario.Solve{Network: scenario.FromNetwork(n)}}
	if s != nil {
		req.SessionID = s.id
		req.Estimator = s.estimator
		if s.objective != scenario.ObjectiveQuality {
			req.Objective = s.objective
		}
		if s.objective == scenario.ObjectiveMinCost {
			req.MinQuality = minQuality
		}
	}
	return &op{kind: opSolve, sess: s, solve: req, wire: []wireReq{postReq("/v1/solve", req)}}
}

func dropCreateOp(s *session, n *core.Network) *op {
	o := solveOp(s, n, 0)
	o.kind = opDropCreate
	o.wire = append([]wireReq{deleteReq(s.id)}, o.wire...)
	return o
}

// drift scales the rate and every path's bandwidth, loss and cost (and
// delay when delays is set) by independent factors within ±maxDrift.
func drift(rng *rand.Rand, base *core.Network, delays bool) *core.Network {
	f := func() float64 { return 1 + (2*rng.Float64()-1)*maxDrift }
	n := *base
	n.Paths = append([]core.Path(nil), base.Paths...)
	n.Rate *= f()
	for i := range n.Paths {
		p := &n.Paths[i]
		p.Bandwidth *= f()
		p.Loss = math.Min(p.Loss*f(), 0.95)
		p.Cost *= f()
		if delays {
			p.Delay = time.Duration(float64(p.Delay) * f())
		}
	}
	return &n
}

// splitLowerBound is the quality of sending every unit once, split
// across the paths in proportion to bandwidth: a feasible strategy, so
// a lower bound on the optimum (cost aside, which the generated
// networks keep loose).
func splitLowerBound(n *core.Network) float64 {
	var bw float64
	for _, p := range n.Paths {
		bw += p.Bandwidth
	}
	sent := math.Min(1, bw/n.Rate)
	var q float64
	for _, p := range n.Paths {
		if p.Delay <= n.Lifetime {
			q += p.Bandwidth / bw * (1 - p.Loss)
		}
	}
	return q * sent
}

// minCostFloor is the quality floor of a min-cost request: half the
// optimum is typical, and never above 90% of the split lower bound, so
// no drifted request is infeasible.
func minCostFloor(n *core.Network) float64 {
	return math.Min(0.5, 0.9*splitLowerBound(n))
}

// observation draws one /v1/observe report for an estimator session:
// per path, a send count, losses near the path's loss, and one or two
// RTT samples near its delay plus the ack path's.
func observation(rng *rand.Rand, s *session) *scenario.ObserveRequest {
	n := s.base
	ack := n.Paths[n.AckPathIndex()].Delay
	req := &scenario.ObserveRequest{SessionID: s.id, Paths: make([]scenario.PathObservation, len(n.Paths))}
	for i, p := range n.Paths {
		sent := 50 + rng.IntN(100)
		lost := int(math.Round(float64(sent) * p.Loss * (0.7 + 0.6*rng.Float64())))
		if lost > sent {
			lost = sent
		}
		rtts := make([]float64, 1+rng.IntN(2))
		for k := range rtts {
			rtt := float64(p.Delay+ack) / float64(time.Millisecond)
			rtts[k] = rtt * (1 + (2*rng.Float64()-1)*maxDrift)
		}
		req.Paths[i] = scenario.PathObservation{Path: i, Sent: sent, Lost: lost, RTTMs: rtts}
	}
	return req
}

func observeOp(rng *rand.Rand, s *session) *op {
	req := observation(rng, s)
	return &op{kind: opObserve, sess: s, obs: req, wire: []wireReq{postReq("/v1/observe", req)}}
}

// newPlan generates a workload's inputs from the seed. The timed
// stream holds the open-loop schedule plus room for a closed loop
// running at up to closedRoom operations per second.
func newPlan(w *workload, seed uint64, sz sizes) *plan {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	p, next := w.gen(rng, sz)
	open, closed := sz.phases()
	p.openN = int(w.rate * open.Seconds())
	p.stream = make([]*op, p.openN+int(closedRoom*closed.Seconds())+64)
	for i := range p.stream {
		p.stream[i] = next(i)
	}
	return p
}

// closedRoom bounds the closed loop's rate, in operations per second:
// about twice the fastest workload's closed-loop throughput on the
// calibration host.
const closedRoom = 3000

// cycler visits a session list in one fixed order, so two operations
// on the same session are always a whole cycle apart and never overlap
// on the benchmark's two connections.
type cycler struct {
	list []*session
	next int
}

func (c *cycler) pick() *session {
	s := c.list[c.next%len(c.list)]
	c.next++
	return s
}

// genTinyFleet: 4096 sessions of 2–4 paths × 2 transmissions, three in
// four of them estimator sessions. Three requests in four are
// /v1/observe reports; the rest re-solve a plain session under ≤10%
// drift.
func genTinyFleet(rng *rand.Rand, sz sizes) (*plan, func(int) *op) {
	nSess := sz.n(4096, 256)
	p := &plan{}
	var est, plain []*session
	for i := 0; i < nSess; i++ {
		s := &session{
			id:        fmt.Sprintf("t%d", i),
			base:      experiments.RandomNetwork(rng, 2+rng.IntN(3), 2),
			objective: scenario.ObjectiveQuality,
			estimator: i%4 != 3,
		}
		p.sessions = append(p.sessions, s)
		if s.estimator {
			est = append(est, s)
		} else {
			plain = append(plain, s)
		}
		p.prime = append(p.prime, solveOp(s, s.base, 0))
	}
	ce, cp := &cycler{list: est}, &cycler{list: plain}
	return p, func(i int) *op {
		if i%4 == 3 {
			s := cp.pick()
			return solveOp(s, drift(rng, s.base, true), 0)
		}
		return observeOp(rng, ce.pick())
	}
}

// genCGResolve: 96 sessions where the solve does the work. Shape
// sessions cycle 10×3 (dense), 15×3 (pruned) and 20×4 (column
// generation) under the quality and min-cost objectives; 1/8 of
// requests are random-objective 6×2 sessions whose drift leaves the
// delays alone, so the timeout cache hits after priming; 1/8 are
// session-less cold solves at Figure 4 sizes.
func genCGResolve(rng *rand.Rand, sz sizes) (*plan, func(int) *op) {
	nRandom := sz.n(12, 3)
	nShape := sz.n(84, 12)
	p := &plan{}
	shapes := [][2]int{{10, 3}, {15, 3}, {20, 4}}
	var shape, random []*session
	for i := 0; i < nShape; i++ {
		sh := shapes[i%len(shapes)]
		s := &session{
			id:        fmt.Sprintf("c%d", i),
			base:      experiments.RandomNetwork(rng, sh[0], sh[1]),
			objective: scenario.ObjectiveQuality,
		}
		if (i/len(shapes))%2 == 1 {
			s.objective = scenario.ObjectiveMinCost
		}
		shape = append(shape, s)
	}
	for i := 0; i < nRandom; i++ {
		random = append(random, &session{
			id:        fmt.Sprintf("r%d", i),
			base:      gammaNetwork(rng, 6),
			objective: scenario.ObjectiveRandom,
		})
	}
	p.sessions = append(append(p.sessions, shape...), random...)
	for _, s := range p.sessions {
		p.prime = append(p.prime, solveOp(s, s.base, minCostFloor(s.base)))
	}
	cs, cr := &cycler{list: shape}, &cycler{list: random}
	return p, func(i int) *op {
		switch i % 8 {
		case 0:
			return solveOp(nil, experiments.RandomNetwork(rng, 2+rng.IntN(9), 2+rng.IntN(2)), 0)
		case 4:
			s := cr.pick()
			return solveOp(s, drift(rng, s.base, false), 0)
		default:
			s := cs.pick()
			n := drift(rng, s.base, true)
			return solveOp(s, n, minCostFloor(n))
		}
	}
}

// gammaNetwork draws a random-delay network: shifted-gamma path delays
// and two transmissions, which the random objective requires.
func gammaNetwork(rng *rand.Rand, paths int) *core.Network {
	w := scenario.FromNetwork(experiments.RandomNetwork(rng, paths, 2))
	for i := range w.Paths {
		w.Paths[i].DelayGamma = &scenario.Gamma{
			LocMs:   20 + 180*rng.Float64(),
			Shape:   1.5 + 2.5*rng.Float64(),
			ScaleMs: 5 + 35*rng.Float64(),
		}
	}
	// Converting from the wire form gives the base exactly the
	// distributions the daemon will decode.
	n, err := w.ToNetwork()
	if err != nil {
		panic(err) // the parameters above are always valid
	}
	return n
}

// genDurable: 1024 sessions of 3×2 plain re-solves against a journaled,
// replicated primary; 1/16 of operations drop a session and re-create
// it.
func genDurable(rng *rand.Rand, sz sizes) (*plan, func(int) *op) {
	nSess := sz.n(1024, 64)
	p := &plan{}
	for i := 0; i < nSess; i++ {
		s := &session{id: fmt.Sprintf("d%d", i), base: experiments.RandomNetwork(rng, 3, 2), objective: scenario.ObjectiveQuality}
		p.sessions = append(p.sessions, s)
		p.prime = append(p.prime, solveOp(s, s.base, 0))
	}
	c := &cycler{list: p.sessions}
	return p, func(i int) *op {
		s := c.pick()
		if i%16 == 15 {
			return dropCreateOp(s, drift(rng, s.base, true))
		}
		return solveOp(s, drift(rng, s.base, true), 0)
	}
}
