package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// call is one HTTP request's outcome.
type call struct {
	id         uint64 // X-Bench-Req id in the traced run, else 0
	status     int
	body       []byte
	err        error
	start, end time.Time
}

// outcome is one executed operation.
type outcome struct {
	op    *op
	calls []call
	// due is when the operation was scheduled to be sent (open loop) or
	// was sent (closed loop); latency runs from due to end.
	due, end time.Time
	// late is how long after it could have been sent the generator sent
	// it: after the later of its due time and the moment a connection
	// was free for it.
	late time.Duration
	// ok is set by the oracle: every status as expected and every
	// answer well formed.
	ok bool
	// quality and cost are the checked answer's, for the re-solve
	// comparison.
	quality, cost float64
}

// latency is the operation's latency, or +Inf when it failed: a failed
// or refused request counts as exceeding any latency limit.
func (o *outcome) latency() float64 {
	if !o.ok {
		return math.Inf(1)
	}
	return float64(o.end.Sub(o.due)) / float64(time.Millisecond)
}

// runner runs operations against one server address on conns
// keep-alive connections, one worker goroutine per connection.
type runner struct {
	addr  string
	conns int
	// ids numbers requests for the traced run; nil sends no id header.
	ids *atomic.Uint64
	// after runs on the worker once an operation completes (the traced
	// run's replay); nil otherwise.
	after func(o *outcome)
	// answered counts requests that got a response.
	answered atomic.Int64
}

func (d *runner) exec(c *conn, o *outcome) {
	o.calls = make([]call, 0, len(o.op.wire))
	for i := range o.op.wire {
		w := &o.op.wire[i]
		var id uint64
		if d.ids != nil {
			id = d.ids.Add(1)
		}
		cl := call{id: id, start: time.Now()}
		cl.status, cl.body, cl.err = c.do(w, id)
		cl.end = time.Now()
		if cl.err == nil {
			d.answered.Add(1)
		}
		o.calls = append(o.calls, cl)
		if cl.err != nil || cl.status != w.want {
			break
		}
	}
	o.end = o.calls[len(o.calls)-1].end
	if d.after != nil {
		d.after(o)
	}
}

// workers runs fn on d.conns goroutines, each with its own connection,
// and waits for all of them.
func (d *runner) workers(fn func(c *conn)) {
	var wg sync.WaitGroup
	for k := 0; k < d.conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &conn{addr: d.addr}
			defer c.close()
			fn(c)
		}()
	}
	wg.Wait()
}

// closed runs ops back to back, each worker sending its next operation
// as soon as its previous one completes, until every operation ran or
// dur elapsed (dur 0 runs them all). It returns the executed prefix,
// the start and the elapsed time.
func (d *runner) closed(ops []*op, dur time.Duration) (outs []*outcome, start time.Time, elapsed time.Duration) {
	out := make([]*outcome, len(ops))
	var next atomic.Int64
	start = time.Now()
	deadline := start.Add(dur)
	d.workers(func(c *conn) {
		for {
			if dur > 0 && !time.Now().Before(deadline) {
				return
			}
			i := int(next.Add(1) - 1)
			if i >= len(ops) {
				return
			}
			o := &outcome{op: ops[i], due: time.Now()}
			d.exec(c, o)
			out[i] = o
		}
	})
	elapsed = time.Since(start)
	n := int(next.Load())
	if n > len(ops) {
		n = len(ops)
	}
	return out[:n], start, elapsed
}

// open sends ops[i] at start + i/rate for i < n: an open loop whose
// schedule does not wait for the server. An operation due while both
// connections are busy is sent when one frees up, and its latency still
// runs from its due time, so a stall is charged to every request it
// delays.
func (d *runner) open(ops []*op, n int, rate float64) []*outcome {
	out := make([]*outcome, n)
	var next atomic.Int64
	start := time.Now().Add(10 * time.Millisecond)
	d.workers(func(c *conn) {
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			free := time.Now()
			due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
			sleepUntil(due)
			o := &outcome{op: ops[i], due: due, late: time.Since(laterOf(due, free))}
			d.exec(c, o)
			out[i] = o
		}
	})
	return out
}

// sleepUntil blocks the calling thread in nanosleep(2) until t. The
// runtime's timers wake through epoll_pwait, whose millisecond timeout
// would make the generator send sub-millisecond-spaced requests up to a
// millisecond late; nanosleep keeps the lateness to the kernel's timer
// slack.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

func laterOf(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// percentile returns the nearest-rank q-quantile of sorted values: the
// smallest value with at least a q share of the sample at or below it.
// NaN for an empty sample.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// windowOps is the size of the windows a phase is cut into for its
// median latency.
const windowOps = 500

// windowP50s cuts executed operations, in schedule order, into
// consecutive windows of at least windowOps (one window when there are
// fewer) and returns each window's p50 latency in ms, failures counting
// as +Inf. Metrics take the median over windows, so a stall of the
// shared host that hits one window moves that window, not the run.
func windowP50s(outs []*outcome) []float64 {
	var p50s []float64
	n := max(len(outs)/windowOps, 1)
	for w := 0; w < n; w++ {
		win := outs[w*len(outs)/n : (w+1)*len(outs)/n]
		lat := make([]float64, len(win))
		for i, o := range win {
			lat[i] = o.latency()
		}
		p50s = append(p50s, percentile(sorted(lat), 0.50))
	}
	return p50s
}

// latencyP50 is the median over windows of windowP50s.
func latencyP50(outs []*outcome) float64 {
	return median(windowP50s(outs))
}

// finiteMs caps an infinite latency (the quantile landed on a failed
// request) at the request timeout, so the figure stays a JSON number.
func finiteMs(v float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return float64(requestTimeout) / float64(time.Millisecond)
	}
	return v
}
