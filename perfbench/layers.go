package main

import (
	"bytes"
	"runtime"

	"dmc/internal/core"
	"dmc/internal/scenario"
)

// dispatchNames maps core's dispatch tiers to metric name suffixes.
var dispatchNames = map[string]string{
	string(core.DispatchDense):  "dense",
	string(core.DispatchPruned): "pruned",
	string(core.DispatchCG):     "cg",
}

// layerMetrics derives the span-based per-layer metrics of the traced
// pass. A layer that did not run on the workload reports 0.
func layerMetrics(spans []span, t *tally, traced, untraced []*outcome) map[string]metricValue {
	type perReq struct {
		request, handler, layers float64
		hasRequest, hasHandler   bool
	}
	reqs := map[uint64]*perReq{}
	var decode, encode, timeouts, polls, solveAll []float64
	solveBy := map[string][]float64{}
	for i := range spans {
		s := &spans[i]
		r := reqs[s.Req]
		if r == nil {
			r = &perReq{}
			reqs[s.Req] = r
		}
		us := s.us()
		switch s.Name {
		case "request":
			r.request, r.hasRequest = us, true
		case "serve.handler":
			r.handler, r.hasHandler = us, true
		case "scenario.decode":
			decode = append(decode, us)
			r.layers += us
		case "scenario.encode":
			encode = append(encode, us)
			r.layers += us
		case "core.timeouts":
			timeouts = append(timeouts, us)
			r.layers += us
		case "estimate.poll":
			polls = append(polls, us)
			r.layers += us
		}
		if (s.Name == "core.solve" || s.Name == "estimate.poll") && s.Dispatch != "" {
			if s.Name == "core.solve" {
				r.layers += us
			}
			solveBy[dispatchNames[s.Dispatch]] = append(solveBy[dispatchNames[s.Dispatch]], us)
			solveAll = append(solveAll, us)
		}
	}
	var httpSelf, serveSelf []float64
	for _, r := range reqs {
		if r.hasRequest && r.hasHandler {
			httpSelf = append(httpSelf, r.request-r.handler)
			serveSelf = append(serveSelf, r.handler-r.layers)
		}
	}

	var reqBytes, respBytes, calls float64
	late := make([]float64, len(traced))
	for i, o := range traced {
		late[i] = o.late.Seconds() * 1e3
		for k, c := range o.calls {
			reqBytes += float64(len(o.op.wire[k].body))
			respBytes += float64(len(c.body))
			calls++
		}
	}
	tracedP50 := latencyP50(traced)
	untracedP50 := latencyP50(untraced)

	p := func(v []float64, q float64) float64 {
		if len(v) == 0 {
			return 0
		}
		return percentile(sorted(v), q)
	}
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	m := map[string]metricValue{
		"loadgen.late_p99_ms":      {p(late, 0.99), "ms"},
		"http.self_us_p50":         {p(httpSelf, 0.5), "us"},
		"http.req_bytes_mean":      {reqBytes / max(calls, 1), "bytes"},
		"http.resp_bytes_mean":     {respBytes / max(calls, 1), "bytes"},
		"scenario.decode_us_p50":   {p(decode, 0.5), "us"},
		"scenario.encode_us_p50":   {p(encode, 0.5), "us"},
		"serve.self_us_p50":        {p(serveSelf, 0.5), "us"},
		"serve.self_us_p99":        {p(serveSelf, 0.99), "us"},
		"core.solve_us_p99":        {p(solveAll, 0.99), "us"},
		"core.warm_ratio":          {ratio(t.warm, t.solves), "ratio"},
		"core.phase1_skip_ratio":   {ratio(t.phase1Skip, t.solves), "ratio"},
		"core.cg_iters_mean":       {ratio(t.cgIters, t.cgSolves), "iters"},
		"core.columns_mean":        {ratio(t.columns, t.solves), "columns"},
		"core.pool_hit_ratio":      {ratio(t.poolHits, t.poolHits+t.poolAdded), "ratio"},
		"core.timeouts_us_p50":     {p(timeouts, 0.5), "us"},
		"estimate.poll_us_p50":     {p(polls, 0.5), "us"},
		"estimate.resolve_ratio":   {ratio(t.pollResolved, t.polls), "ratio"},
		"trace.overhead_pct":       {(finiteMs(tracedP50)/finiteMs(untracedP50) - 1) * 100, "%"},
		"core.solve_us_p50.dense":  {p(solveBy["dense"], 0.5), "us"},
		"core.solve_us_p50.pruned": {p(solveBy["pruned"], 0.5), "us"},
		"core.solve_us_p50.cg":     {p(solveBy["cg"], 0.5), "us"},
	}
	for d, name := range dispatchNames {
		m["core.dispatch_share."+name] = metricValue{ratio(t.dispatch[core.Dispatch(d)], t.solves), "ratio"}
	}
	return m
}

// allocSample bounds how many answered requests the allocation pass
// replays.
const allocSample = 200

// measureAllocs replays a sample of the traced pass's solve and observe
// requests one at a time, with the servers idle, and counts the heap
// allocations of each layer's call.
func measureAllocs(rp *replayer, traced []*outcome) map[string]metricValue {
	var ms runtime.MemStats
	allocs := func(fn func()) uint64 {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		fn()
		runtime.ReadMemStats(&ms)
		return ms.Mallocs - before
	}
	var dec, sol, enc, n uint64
	for _, o := range traced {
		if n == allocSample {
			break
		}
		if !o.ok {
			continue
		}
		body := o.op.wire[len(o.op.wire)-1].body
		var (
			s          *core.Solution
			to         *core.Timeouts
			resolved   = true
			id         string
			err        error
			dA, sA, eA uint64
		)
		if o.op.obs != nil {
			var req scenario.ObserveRequest
			dA = allocs(func() { err = scenario.Load(bytes.NewReader(body), &req) })
			if err == nil {
				sA = allocs(func() { s, resolved, err = rp.poll(&req) })
			}
			id = req.SessionID
		} else {
			var req *scenario.SolveRequest
			var net *core.Network
			dA = allocs(func() { req, net, err = decodeSolve(body) })
			if err == nil {
				to, err = rp.timeouts(req, net)
			}
			if err == nil {
				sA = allocs(func() { s, err = rp.solveSession(req, net, to) })
				id = req.SessionID
			}
		}
		if err != nil {
			continue
		}
		// Encoding a solved strategy into a buffer cannot fail.
		eA = allocs(func() { _ = encode(id, resolved, s, to) })
		dec, sol, enc, n = dec+dA, sol+sA, enc+eA, n+1
	}
	per := func(v uint64) float64 {
		if n == 0 {
			return 0
		}
		return float64(v) / float64(n)
	}
	return map[string]metricValue{
		"scenario.decode_allocs": {per(dec), "allocs"},
		"core.solve_allocs":      {per(sol), "allocs"},
		"scenario.encode_allocs": {per(enc), "allocs"},
	}
}
