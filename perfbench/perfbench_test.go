package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dmc/internal/core"
	"dmc/internal/experiments"
	"dmc/internal/scenario"
)

func TestOpenLoopMath(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	// Latency runs from the due time, not the send time: the first
	// operation was sent 4ms late and answered 1ms after sending.
	outs := []*outcome{
		{due: t0, end: t0.Add(ms(5)), ok: true},
		{due: t0, end: t0.Add(ms(1)), ok: true},
		{due: t0, end: t0.Add(ms(2)), ok: true},
		{due: t0, end: t0.Add(ms(0.5)), ok: false}, // failed: over any limit
	}
	if got := outs[0].latency(); got != 5 {
		t.Fatalf("latency = %v ms, want 5 (from the due time)", got)
	}
	if got := outs[3].latency(); !math.IsInf(got, 1) {
		t.Fatalf("failed latency = %v, want +Inf", got)
	}
	// Nearest rank over {1, 2, 5, +Inf}: p50 is the 2nd value; the
	// failure sorts last.
	if got := latencyP50(outs); got != 2 {
		t.Fatalf("p50 = %v, want 2", got)
	}
	// With the failures in the majority the median lands on one, and the
	// figure reads as the request timeout.
	failing := append(outs, &outcome{}, &outcome{}, &outcome{})
	if got := finiteMs(latencyP50(failing)); got != float64(requestTimeout/time.Millisecond) {
		t.Fatalf("p50 over mostly failures = %v, want the request timeout", got)
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
	}{
		{100, 0.99, 99}, {100, 0.50, 50}, {1000, 0.99, 990}, {1, 0.99, 1}, {3, 0.5, 2},
	} {
		v := make([]float64, tc.n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		if got := percentile(v, tc.q); got != tc.want {
			t.Errorf("percentile(1..%d, %v) = %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
}

// served builds the outcome of a correctly answered solve of net.
func served(t *testing.T, o *op) (*outcome, *scenario.SolveResponse) {
	t.Helper()
	net, err := o.solve.Network.ToNetwork()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.SolveQuality(net)
	if err != nil {
		t.Fatal(err)
	}
	res := scenario.NewSolveResult(sol, nil)
	return &outcome{op: o}, &scenario.SolveResponse{SessionID: o.sess.id, Resolved: true, Result: &res}
}

func answer(t *testing.T, out *outcome, resp *scenario.SolveResponse) *outcome {
	t.Helper()
	body, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	out.calls = []call{{status: 200, body: body}}
	return out
}

func TestOracleRejectsCorruptedResponse(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	s := &session{id: "s", base: experiments.RandomNetwork(rng, 3, 2), objective: scenario.ObjectiveQuality}
	o := solveOp(s, s.base, 0)

	out, resp := served(t, o)
	if err := check(answer(t, out, resp)); err != nil {
		t.Fatalf("a correct answer failed the oracle: %v", err)
	}
	if err := resolveSample(rng, []*outcome{out}, 1); err != nil {
		t.Fatalf("a correct answer failed the re-solve: %v", err)
	}

	corruptions := map[string]func(r *scenario.SolveResponse){
		"quality above 1":  func(r *scenario.SolveResponse) { r.Result.Quality = 1.5 },
		"shares off by 1%": func(r *scenario.SolveResponse) { r.Result.Shares[0].Fraction += 0.01 },
		"path rate lost":   func(r *scenario.SolveResponse) { r.Result.PathRatesMbps = r.Result.PathRatesMbps[1:] },
		"wrong session":    func(r *scenario.SolveResponse) { r.SessionID = "other" },
		"not resolved":     func(r *scenario.SolveResponse) { r.Resolved = false },
	}
	for name, corrupt := range corruptions {
		out, resp := served(t, o)
		corrupt(resp)
		if err := check(answer(t, out, resp)); err == nil {
			t.Errorf("%s: the oracle accepted the corrupted answer", name)
		}
	}
	out, resp = served(t, o)
	answer(t, out, &scenario.SolveResponse{})
	if check(out) == nil {
		t.Error("the oracle accepted an answer without a strategy")
	}
	out.calls[0].status = 500
	if check(out) == nil {
		t.Error("the oracle accepted a 500")
	}

	// A well-formed answer whose quality is not the optimum passes the
	// per-response invariants but fails the in-process re-solve.
	out, resp = served(t, o)
	resp.Result.Quality -= 1e-4
	if err := check(answer(t, out, resp)); err != nil {
		t.Fatalf("invariants rejected a well-formed answer: %v", err)
	}
	if err := resolveSample(rng, []*outcome{out}, 1); err == nil {
		t.Error("the re-solve accepted a suboptimal quality")
	}
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json
// declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Fatalf("BENCHMARK.json workload %q: %v", w.Name, err)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestSmoke runs every workload end to end and traced at smoke-test
// sizes against a dmcd built from this checkout, and requires every
// metric BENCHMARK.json declares, with its unit, and correct answers.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	dir := t.TempDir()
	dmcd := filepath.Join(dir, "dmcd")
	build := exec.Command("go", "build", "-o", dmcd, "dmc/cmd/dmcd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building dmcd: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for trace, want := range []map[string]string{endToEnd, perLayer} {
			var stdout bytes.Buffer
			o := &options{workload: w.name, seed: 3, seconds: 2, trace: trace, dmcd: dmcd, workDir: dir, short: true}
			// An oracle failure still prints the result; the metrics are
			// checked either way.
			if err := run(o, &stdout); err != nil {
				t.Errorf("%s trace=%d: %v", w.name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line %q: %v", w.name, trace, lines[len(lines)-1], err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%d: metric %s missing", w.name, trace, name)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%d: metric %s in %q, BENCHMARK.json says %q", w.name, trace, name, got.Unit, unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics printed, BENCHMARK.json declares %d", w.name, trace, len(res.Metrics), len(want))
			}
		}
	}
}
