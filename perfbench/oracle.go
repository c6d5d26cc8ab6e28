package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"dmc/internal/core"
	"dmc/internal/estimate"
	"dmc/internal/scenario"
)

// agreeTol is how closely a served answer must match the in-process
// re-solve of the same request.
const agreeTol = 1e-6

// check verifies one executed operation and records the answer on it:
// every request got its expected status, and a solve or observe answer
// is a well-formed strategy for the request's network.
func check(o *outcome) error {
	if len(o.calls) != len(o.op.wire) {
		c := o.calls[len(o.calls)-1]
		if c.err != nil {
			return c.err
		}
		return fmt.Errorf("status %d, want %d: %.200s", c.status, o.op.wire[len(o.calls)-1].want, c.body)
	}
	for i, c := range o.calls {
		if c.err != nil {
			return c.err
		}
		if c.status != o.op.wire[i].want {
			return fmt.Errorf("status %d, want %d: %.200s", c.status, o.op.wire[i].want, c.body)
		}
	}
	var resp scenario.SolveResponse
	if err := json.Unmarshal(o.calls[len(o.calls)-1].body, &resp); err != nil {
		return fmt.Errorf("decoding answer: %w", err)
	}
	if err := checkAnswer(o.op, &resp); err != nil {
		return err
	}
	o.ok = true
	o.quality, o.cost = resp.Result.Quality, resp.Result.CostPerSecond
	return nil
}

// checkAnswer holds a response to the invariants every strategy meets:
// quality in [0,1], shares summing to 1, one path rate per path, the
// session echoed, and for min-cost the quality floor met.
func checkAnswer(o *op, resp *scenario.SolveResponse) error {
	var id string
	if o.sess != nil {
		id = o.sess.id
	}
	if resp.SessionID != id {
		return fmt.Errorf("answer for session %q, want %q", resp.SessionID, id)
	}
	r := resp.Result
	if r == nil {
		return errors.New("answer carries no strategy")
	}
	if resp.Degraded {
		return errors.New("degraded answer")
	}
	if o.kind != opObserve && !resp.Resolved {
		return errors.New("solve answered without solving")
	}
	if !(r.Quality >= 0 && r.Quality <= 1) {
		return fmt.Errorf("quality %v outside [0,1]", r.Quality)
	}
	var sum float64
	for _, s := range r.Shares {
		sum += s.Fraction
	}
	if math.Abs(sum-1) > agreeTol {
		return fmt.Errorf("shares sum to %v", sum)
	}
	var nPaths int
	if o.solve != nil {
		nPaths = len(o.solve.Network.Paths)
	} else {
		nPaths = len(o.sess.base.Paths)
	}
	if len(r.PathRatesMbps) != nPaths {
		return fmt.Errorf("%d path rates for %d paths", len(r.PathRatesMbps), nPaths)
	}
	if o.solve != nil && o.solve.Objective == scenario.ObjectiveMinCost && r.Quality < o.solve.MinQuality-agreeTol {
		return fmt.Errorf("quality %v under the floor %v", r.Quality, o.solve.MinQuality)
	}
	return nil
}

// checkAll runs check on every outcome and returns the failure count
// and the first failure.
func checkAll(outs []*outcome) (failed int, first error) {
	for _, o := range outs {
		if err := check(o); err != nil {
			failed++
			if first == nil {
				first = fmt.Errorf("%s: %w", describe(o.op), err)
			}
		}
	}
	return failed, first
}

// resolveSample re-solves a seeded sample of the served solves cold on
// a fresh core.Solver, and replays a sample of estimator sessions'
// whole observation histories through a fresh estimate.Adaptor; each
// must agree with what the daemon answered within agreeTol. history is
// the checked outcomes of the daemon that served the timed phases, in
// execution order.
func resolveSample(rng *rand.Rand, history []*outcome, n int) error {
	var solves []*outcome
	perSession := map[*session][]*outcome{}
	for _, o := range history {
		if !o.ok {
			continue
		}
		if o.op.sess != nil && o.op.sess.estimator {
			perSession[o.op.sess] = append(perSession[o.op.sess], o)
			continue
		}
		solves = append(solves, o)
	}
	for _, k := range rng.Perm(len(solves))[:min(n, len(solves))] {
		if err := resolveOne(solves[k]); err != nil {
			return err
		}
	}
	est := make([]*session, 0, len(perSession))
	for s := range perSession {
		est = append(est, s)
	}
	sort.Slice(est, func(i, j int) bool { return est[i].id < est[j].id })
	for _, k := range rng.Perm(len(est))[:min(n/4, len(est))] {
		if err := replayEstimator(perSession[est[k]]); err != nil {
			return err
		}
	}
	return nil
}

func resolveOne(o *outcome) error {
	req := o.op.solve
	net, err := req.Network.ToNetwork()
	if err != nil {
		return err
	}
	sv := core.NewSolver()
	var sol *core.Solution
	switch req.Objective {
	case scenario.ObjectiveMinCost:
		sol, err = sv.SolveMinCost(net, req.MinQuality)
	case scenario.ObjectiveRandom:
		var opts core.TimeoutOptions
		if req.Timeout != nil {
			opts = req.Timeout.Options()
		}
		var to *core.Timeouts
		if to, err = core.OptimalTimeouts(net, opts); err == nil {
			sol, err = sv.SolveQualityRandom(net, to)
		}
	default:
		sol, err = sv.SolveQuality(net)
	}
	if err != nil {
		return fmt.Errorf("re-solving %s: %w", describe(o.op), err)
	}
	if req.Objective == scenario.ObjectiveMinCost {
		if math.Abs(sol.Cost()-o.cost) > agreeTol*math.Max(1, math.Abs(sol.Cost())) {
			return fmt.Errorf("%s: served cost %v, re-solve %v", describe(o.op), o.cost, sol.Cost())
		}
		return nil
	}
	if math.Abs(sol.Quality-o.quality) > agreeTol {
		return fmt.Errorf("%s: served quality %v, re-solve %v", describe(o.op), o.quality, sol.Quality)
	}
	return nil
}

// replayEstimator feeds one estimator session's priming solve and
// observation reports, in the order the daemon served them, through a
// fresh Adaptor and compares the final strategy's quality.
func replayEstimator(hist []*outcome) error {
	var ad *estimate.Adaptor
	var sol *core.Solution
	for _, o := range hist {
		switch {
		case o.op.solve != nil:
			net, err := o.op.solve.Network.ToNetwork()
			if err != nil {
				return err
			}
			if ad, err = estimate.NewAdaptor(net); err != nil {
				return err
			}
		case ad == nil:
			return fmt.Errorf("%s: observation before the estimator solve", describe(o.op))
		default:
			foldObservations(ad, o.op.obs)
		}
		var err error
		if sol, _, err = ad.Solution(); err != nil {
			return fmt.Errorf("replaying %s: %w", describe(o.op), err)
		}
		if math.Abs(sol.Quality-o.quality) > agreeTol {
			return fmt.Errorf("%s: served quality %v, replayed estimator %v", describe(o.op), o.quality, sol.Quality)
		}
	}
	return nil
}

// foldObservations applies a report exactly as the daemon's observe
// handler does.
func foldObservations(ad *estimate.Adaptor, req *scenario.ObserveRequest) {
	for _, p := range req.Paths {
		ad.ObserveSends(p.Path, p.Sent)
		ad.ObserveLosses(p.Path, p.Lost)
		for _, ms := range p.RTTMs {
			ad.ObserveRTT(p.Path, time.Duration(ms*float64(time.Millisecond)))
		}
	}
}

func describe(o *op) string {
	if o.sess == nil {
		return fmt.Sprintf("one-shot %d-path solve", len(o.solve.Network.Paths))
	}
	switch o.kind {
	case opObserve:
		return fmt.Sprintf("observe on session %s", o.sess.id)
	case opDropCreate:
		return fmt.Sprintf("drop and re-create of session %s", o.sess.id)
	}
	return fmt.Sprintf("%s solve on session %s", o.sess.objective, o.sess.id)
}
