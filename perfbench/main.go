// Command perfbench is the repository's benchmark of the dmcd solver
// daemon. For each seeded traffic mix it spawns the real cmd/dmcd binary
// (plus a -follow standby where the mix needs one), primes every
// session, runs an open-loop phase at a fixed rate and then a
// closed-loop phase on nproc keep-alive loopback connections, checks
// every answer, and prints the end-to-end metrics. With -trace 1 it
// instead serves the same configuration in-process, records spans
// around each layer's public functions, and prints per-layer metrics.
//
// run.sh builds dmcd and this generator from the checkout and runs it
// from the repository root:
//
//	bash perfbench/run.sh --workload tiny-fleet --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"p50_ms": {"value": …, "unit": "ms"}, …}}
//
// The line before it is the host fingerprint. The exit status is
// non-zero when any answer fails the oracle or the run cannot complete.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	dmcd     string
	workDir  string
	// short selects smoke-test sizes: few sessions and one set-up.
	short bool
}

func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs.StringVar(&o.workload, "workload", "", "traffic mix: "+strings.Join(names, ", ")+", or all")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed: the same seed generates the same requests and schedule")
	fs.IntVar(&o.seconds, "seconds", 30, "measured seconds per run (40% open loop, 60% closed loop)")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced in-process run printing per-layer metrics")
	fs.StringVar(&o.dmcd, "dmcd", "", "dmcd binary built from the checkout")
	fs.StringVar(&o.workDir, "work-dir", ".bench_build", "directory for state dirs and span files")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	switch {
	case o.dmcd == "":
		return nil, errors.New("-dmcd is required")
	case o.seconds < 1:
		return nil, errors.New("-seconds must be at least 1")
	case o.trace != 0 && o.trace != 1:
		return nil, errors.New("-trace must be 0 or 1")
	}
	if o.workload != "all" {
		if _, err := workloadByName(o.workload); err != nil {
			return nil, err
		}
	}
	return o, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run runs the selected workloads, printing each one's fingerprint and
// result line. It fails when a run cannot complete or any answer is
// wrong.
func run(o *options, stdout io.Writer) error {
	ws := workloads
	if o.workload != "all" {
		w, _ := workloadByName(o.workload)
		ws = []*workload{w}
	}
	var bad []string
	for _, w := range ws {
		steal0, total0 := cpuStat()
		res, err := runWorkload(o, w)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		h := fingerprint(o.dmcd, o.workDir)
		if steal1, total1 := cpuStat(); total1 > total0 {
			h.StealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
		}
		host, err := json.Marshal(map[string]any{"workload": w.name, "host": h})
		if err != nil {
			return err
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n%s\n", host, line)
		if !res.Correct {
			bad = append(bad, w.name)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("oracle failures on %s", strings.Join(bad, ", "))
	}
	return nil
}

func runWorkload(o *options, w *workload) (*result, error) {
	sz := sizes{short: o.short, seconds: float64(o.seconds)}
	p := newPlan(w, o.seed, sz)
	stateDir, err := filepath.Abs(filepath.Join(o.workDir, "state", fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if o.trace == 1 {
		return runTraced(o, w, p, stateDir)
	}
	return runEndToEnd(o, w, p, stateDir)
}

// setupReps is how many times an end-to-end run sets up the daemons.
// Each set-up spawns fresh daemons, primes every session, and runs its
// share of both timed phases; the metrics take medians over the set-ups
// and the pooled windows, so a daemon process that happens to run slow
// for its whole life (its threads' placement, say) is outvoted.
const setupReps = 7

// setupRun is what one set-up measured.
type setupRun struct {
	setup     float64
	primed    []*outcome
	open      []*outcome
	closed    []*outcome
	cpu       time.Duration // daemon CPU time over the open loop
	answered  int64         // requests answered in the open loop
	rss       float64
	oracleErr error
}

// runEndToEnd measures the real daemon out of process.
func runEndToEnd(o *options, w *workload, p *plan, stateDir string) (*result, error) {
	reps := setupReps
	if o.short {
		reps = 1
	}
	_, closedDur := sizes{short: o.short, seconds: float64(o.seconds)}.phases()
	closedOps := p.stream[p.openN:]
	var runs []*setupRun
	for rep := 0; rep < reps; rep++ {
		r, err := runSetup(o, w, p,
			p.stream[rep*p.openN/reps:(rep+1)*p.openN/reps],
			closedOps[rep*len(closedOps)/reps:(rep+1)*len(closedOps)/reps],
			closedDur/time.Duration(reps), fmt.Sprintf("%s-%d", stateDir, rep))
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}

	var (
		all               []*outcome
		setups, p50s, rss []float64
		cpu               time.Duration
		answered          int64
		failed            int
		correct           = true
	)
	for _, r := range runs {
		all = append(append(append(all, r.primed...), r.open...), r.closed...)
		setups = append(setups, r.setup)
		p50s = append(p50s, windowP50s(r.closed)...)
		cpu += r.cpu
		answered += r.answered
		rss = append(rss, r.rss)
		if r.oracleErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: oracle: %v\n", w.name, r.oracleErr)
			correct = false
		}
	}
	for _, out := range all {
		if !out.ok {
			failed++
		}
	}
	if answered == 0 {
		return nil, errors.New("no request was answered in the open loop")
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: set-ups %.3f s; %d closed-loop windows p50 %.3f ms\n",
		w.name, setups, len(p50s), p50s)
	return &result{
		Correct:   correct && failed == 0,
		Attempted: len(all),
		Failed:    failed,
		Metrics: map[string]metricValue{
			"setup_s":        {median(setups), "s"},
			"p50_ms":         {finiteMs(median(p50s)), "ms"},
			"cpu_us_per_req": {float64(cpu) / float64(time.Microsecond) / float64(answered), "us"},
			"rss_mb":         {median(rss), "MiB"},
		},
	}, nil
}

// runSetup spawns the daemons, primes every session, runs the open-loop
// operations at the workload's rate and then the closed-loop operations
// for closedFor, checks every answer, and stops the daemons.
func runSetup(o *options, w *workload, p *plan, openOps, closedOps []*op, closedFor time.Duration, stateDir string) (*setupRun, error) {
	r := &setupRun{}
	start := time.Now()
	c, err := startCluster(o.dmcd, w, stateDir)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	rn := &runner{addr: c.primary.addr, conns: runtime.NumCPU()}
	r.primed, _, _ = rn.closed(p.prime, 0)
	r.setup = time.Since(start).Seconds()

	cpu0, err := c.cpu()
	if err != nil {
		return nil, err
	}
	n0 := rn.answered.Load()
	r.open = rn.open(openOps, len(openOps), w.rate)
	cpu1, err := c.cpu()
	if err != nil {
		return nil, err
	}
	r.cpu, r.answered = cpu1-cpu0, rn.answered.Load()-n0
	var elapsed time.Duration
	r.closed, _, elapsed = rn.closed(closedOps, closedFor)
	if len(r.closed) == len(closedOps) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: closed loop ran out of generated operations after %v\n", w.name, elapsed)
	}
	if r.rss, err = c.primary.peakRSSMB(); err != nil {
		return nil, err
	}

	history := append(append(append([]*outcome(nil), r.primed...), r.open...), r.closed...)
	if _, first := checkAll(history); first != nil {
		r.oracleErr = first
	}
	if err := resolveSample(rand.New(rand.NewPCG(o.seed, uint64(len(openOps)))), history, 12); err != nil {
		r.oracleErr = errors.Join(r.oracleErr, err)
	}
	if w.durable {
		if err := sameSessions(c.primary.addr, c.follower.addr, len(p.sessions)); err != nil {
			r.oracleErr = errors.Join(r.oracleErr, err)
		}
	}
	return r, c.stop()
}

// sameSessions requires the follower to hold exactly the primary's
// sessions, and both to hold the workload's. Replication is
// asynchronous, so the follower may trail by the records it has not
// pulled yet; with the load stopped it gets three seconds to catch up.
func sameSessions(primary, follower string, want int) error {
	count := func(addr string) (int, error) {
		b, err := get(addr, "/metrics")
		if err != nil {
			return 0, err
		}
		var m struct {
			Sessions int `json:"sessions"`
		}
		return m.Sessions, json.Unmarshal(b, &m)
	}
	var prim, fol int
	var err error
	for deadline := time.Now().Add(3 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		if prim, err = count(primary); err != nil {
			return err
		}
		if fol, err = count(follower); err != nil {
			return err
		}
		if (prim == fol && prim == want) || time.Now().After(deadline) {
			break
		}
	}
	if prim != want || fol != prim {
		return fmt.Errorf("primary holds %d sessions and follower %d, want %d", prim, fol, want)
	}
	return nil
}

// median returns the middle value, or the mean of the two middle values,
// of a non-empty sample; infinities sort last.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
