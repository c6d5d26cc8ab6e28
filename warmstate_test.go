package dmc_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dmc"
	"dmc/internal/core"
	"dmc/internal/estimate"
	"dmc/internal/experiments"
	"dmc/internal/lp"
)

// fleetSessions is the session count of the tiny-fleet serving regime:
// thousands of 2–4-path sessions, each holding warm re-solve state.
const fleetSessions = 4096

// tinyFleet draws fleetSessions random 2–4-path × 2-transmission
// networks, the shapes the daemon's tiny-fleet sessions carry.
func tinyFleet(seed uint64) []*core.Network {
	rng := rand.New(rand.NewPCG(seed, 0xf1ee7))
	nets := make([]*core.Network, fleetSessions)
	for i := range nets {
		nets[i] = experiments.RandomNetwork(rng, 2+i%3, 2)
	}
	return nets
}

// heapAfterGC is the live heap once every collectable object is gone.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// perSession is the live-heap growth from before to after, per session.
func perSession(before, after uint64) float64 {
	if after < before {
		return 0
	}
	return float64(after-before) / fleetSessions
}

// TestWarmSessionMemoryBudget bounds what one warm session retains
// between solves. A session's persistent state is its shape key, the
// last optimal basis and the column values its Solution aliases; the LP
// tableau, the assembly arena and the combination digits are borrowed
// per solve, so they must not be counted once per session.
func TestWarmSessionMemoryBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("primes 8192 warm solvers")
	}
	const (
		sessionBudget = 2500 // bytes per WarmPool session
		adaptorBudget = 4000 // bytes per estimate.Adaptor
	)

	t.Run("WarmPool", func(t *testing.T) {
		nets := tinyFleet(1)
		rng := rand.New(rand.NewPCG(2, 2))
		drifted := make([]*core.Network, len(nets))
		for i, n := range nets {
			drifted[i] = experiments.DriftNetwork(rng, n, 0.1)
		}
		keys := make([]string, len(nets))
		for i := range keys {
			keys[i] = fmt.Sprintf("session-%d", i)
		}
		before := heapAfterGC()
		pool := core.NewWarmPool()
		for i, n := range nets {
			if _, err := pool.SolveSession(keys[i], n); err != nil {
				t.Fatal(err)
			}
		}
		warm := 0
		for i, n := range drifted {
			sol, err := pool.SolveSession(keys[i], n)
			if err != nil {
				t.Fatal(err)
			}
			if sol.Stats.Warm {
				warm++
			}
		}
		if warm != len(nets) {
			t.Fatalf("%d of %d drifted re-solves ran warm", warm, len(nets))
		}
		got := perSession(before, heapAfterGC())
		// The networks predate the baseline: keep them out of the count.
		runtime.KeepAlive(pool)
		runtime.KeepAlive(nets)
		runtime.KeepAlive(drifted)
		runtime.KeepAlive(keys)
		t.Logf("WarmPool: %.0f B retained per session", got)
		if got > sessionBudget {
			t.Errorf("WarmPool retains %.0f B per session, budget %d B", got, sessionBudget)
		}
	})

	t.Run("Adaptor", func(t *testing.T) {
		nets := tinyFleet(3)
		before := heapAfterGC()
		ads := make([]*estimate.Adaptor, len(nets))
		for i, n := range nets {
			ad, err := estimate.NewAdaptor(n)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := ad.Solution(); err != nil {
				t.Fatal(err)
			}
			ads[i] = ad
		}
		for i, ad := range ads {
			// A 5–20% loss estimate on every path is a drift past the
			// adaptor's tolerance, so the poll re-solves warm.
			for p := range nets[i].Paths {
				ad.ObserveSends(p, 100)
				ad.ObserveLosses(p, 5+(i+p)%16)
			}
			sol, resolved, err := ad.Solution()
			if err != nil {
				t.Fatal(err)
			}
			if !resolved || !sol.Stats.Warm {
				t.Fatalf("adaptor %d: resolved=%v warm=%v after drift", i, resolved, sol.Stats.Warm)
			}
		}
		got := perSession(before, heapAfterGC())
		runtime.KeepAlive(ads)
		runtime.KeepAlive(nets)
		t.Logf("Adaptor: %.0f B retained per adaptor", got)
		if got > adaptorBudget {
			t.Errorf("Adaptor retains %.0f B per adaptor, budget %d B", got, adaptorBudget)
		}
	})
}

// pooledCase is one objective/shape of the concurrency test: warm runs
// a session's re-solve, cold the matching one-shot solve.
type pooledCase struct {
	name         string
	paths, trans int
	dispatch     core.Dispatch
	warm         func(p *core.WarmPool, key string, n *core.Network) (*core.Solution, error)
	cold         func(n *core.Network) (*core.Solution, error)
}

func pooledCases() []pooledCase {
	var cases []pooledCase
	shapes := []struct {
		paths, trans int
		dispatch     core.Dispatch
	}{
		{3, 2, core.DispatchDense},  // 16 combinations
		{4, 3, core.DispatchDense},  // 125
		{10, 3, core.DispatchCG},    // 1331
		{10, 2, core.DispatchDense}, // 121: the random objective's m = 2 pair space
		{12, 2, core.DispatchCG},    // 169
	}
	for _, sh := range shapes {
		tag := fmt.Sprintf("%dx%d", sh.paths, sh.trans)
		cases = append(cases,
			pooledCase{
				name: "quality/" + tag, paths: sh.paths, trans: sh.trans, dispatch: sh.dispatch,
				warm: func(p *core.WarmPool, key string, n *core.Network) (*core.Solution, error) {
					return p.SolveSession(key, n)
				},
				cold: core.SolveQuality,
			},
			pooledCase{
				name: "mincost/" + tag, paths: sh.paths, trans: sh.trans, dispatch: sh.dispatch,
				warm: func(p *core.WarmPool, key string, n *core.Network) (*core.Solution, error) {
					return p.SolveSessionMinCost(key, n, minCostFloor(n))
				},
				cold: func(n *core.Network) (*core.Solution, error) {
					return core.SolveMinCost(n, minCostFloor(n))
				},
			})
		if sh.trans == 2 {
			cases = append(cases, pooledCase{
				name: "random/" + tag, paths: sh.paths, trans: sh.trans, dispatch: sh.dispatch,
				warm: func(p *core.WarmPool, key string, n *core.Network) (*core.Solution, error) {
					to, err := core.DeterministicTimeouts(n, 0)
					if err != nil {
						return nil, err
					}
					return p.SolveSessionRandom(key, n, to)
				},
				cold: func(n *core.Network) (*core.Solution, error) {
					to, err := core.DeterministicTimeouts(n, 0)
					if err != nil {
						return nil, err
					}
					return core.SolveQualityRandom(n, to)
				},
			})
		}
	}
	return cases
}

// minCostFloor is a quality floor every network can reach: half the
// single-path delivery of its most reliable path, which the bandwidth
// rows of a RandomNetwork (rate 0.8× the summed bandwidth) always admit.
func minCostFloor(n *core.Network) float64 {
	best := 0.0
	for _, p := range n.Paths {
		best = math.Max(best, (1-p.Loss)*p.Bandwidth/n.Rate)
	}
	return 0.5 * math.Min(best, 1)
}

// TestPooledStateConcurrent drives 8 goroutines over disjoint sessions
// of one WarmPool, each also polling its own estimate.Adaptor, through
// 60-step drift chains. The tableau, the assembly arena and the
// combination tables are shared package pools now, so this is the
// race check for them: every warm result must match a cold solve and
// satisfy its own Problem().
func TestPooledStateConcurrent(t *testing.T) {
	const workers = 8
	steps := 60
	if testing.Short() {
		steps = 12
	}
	cases := pooledCases()
	pool := core.NewWarmPool()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := pooledWorker(pool, cases, w, steps); err != nil {
				errs <- fmt.Errorf("worker %d: %w", w, err)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func pooledWorker(pool *core.WarmPool, cases []pooledCase, w, steps int) error {
	rng := rand.New(rand.NewPCG(uint64(w), 0x5eed))
	for ci, c := range cases {
		// Workers take turns owning each case, so every case runs on
		// several goroutines at once without two sharing a session.
		if (ci+w)%2 != 0 {
			continue
		}
		key := fmt.Sprintf("w%d/%s", w, c.name)
		n := experiments.RandomNetwork(rng, c.paths, c.trans)
		var ad *estimate.Adaptor
		if strings.HasPrefix(c.name, "quality/") {
			var err error
			if ad, err = estimate.NewAdaptor(n); err != nil {
				return err
			}
		}
		for step := 0; step < steps; step++ {
			if step > 0 {
				n = experiments.DriftNetwork(rng, n, 0.1)
			}
			sol, err := c.warm(pool, key, n)
			if err != nil {
				return fmt.Errorf("%s step %d: warm: %w", c.name, step, err)
			}
			if err := checkPooled(c, n, sol, step); err != nil {
				return err
			}
			if ad == nil {
				continue
			}
			for p := range n.Paths {
				ad.ObserveSends(p, 20)
				if rng.IntN(3) == 0 {
					ad.ObserveLoss(p)
				}
			}
			asol, resolved, err := ad.Solution()
			if err != nil {
				return fmt.Errorf("%s step %d: adaptor: %w", c.name, step, err)
			}
			if !resolved {
				continue
			}
			// No observation since the poll: this is the estimate the
			// adaptor just solved.
			aref, err := core.SolveQuality(ad.EstimatedNetwork())
			if err != nil {
				return err
			}
			if d := math.Abs(asol.Quality - aref.Quality); d > 1e-6 {
				return fmt.Errorf("%s step %d: adaptor quality %v, cold %v", c.name, step, asol.Quality, aref.Quality)
			}
			if v := lp.Verify(asol.Problem(), asol.X, 1e-6); len(v) > 0 {
				return fmt.Errorf("%s step %d: adaptor solution violates its own problem: %v", c.name, step, v[0])
			}
		}
	}
	return nil
}

// checkPooled compares a warm session result with a cold solve of the
// same network and audits it against its own Problem().
func checkPooled(c pooledCase, n *core.Network, sol *core.Solution, step int) error {
	if sol.Stats.Dispatch != c.dispatch {
		return fmt.Errorf("%s step %d: dispatch %v, want %v", c.name, step, sol.Stats.Dispatch, c.dispatch)
	}
	if step > 0 && !sol.Stats.Warm {
		return fmt.Errorf("%s step %d: re-solve did not run warm", c.name, step)
	}
	ref, err := c.cold(n)
	if err != nil {
		return fmt.Errorf("%s step %d: cold: %w", c.name, step, err)
	}
	// The optimum is unique in its objective value, not in x: compare
	// what each objective optimizes.
	if strings.HasPrefix(c.name, "mincost/") {
		if d := math.Abs(sol.Cost() - ref.Cost()); d > 1e-6*math.Max(1, math.Abs(ref.Cost())) {
			return fmt.Errorf("%s step %d: warm cost %v, cold %v", c.name, step, sol.Cost(), ref.Cost())
		}
	} else if d := math.Abs(sol.Quality - ref.Quality); d > 1e-6 {
		return fmt.Errorf("%s step %d: warm quality %v, cold %v", c.name, step, sol.Quality, ref.Quality)
	}
	if v := lp.Verify(sol.Problem(), sol.X, 1e-6); len(v) > 0 {
		return fmt.Errorf("%s step %d: solution violates its own problem: %v", c.name, step, v[0])
	}
	return nil
}

// TestDenseResolveProblemMatchesOneShot: a dense warm re-solve builds
// its Problem() on demand from the solution's own columns, and that
// problem must be the one a one-shot SolveQuality solves, row for row.
func TestDenseResolveProblemMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	sv := dmc.NewSolver()
	n := experiments.RandomNetwork(rng, 3, 2)
	for step := 0; step < 5; step++ {
		if step > 0 {
			n = experiments.DriftNetwork(rng, n, 0.1)
		}
		warm, err := sv.Resolve(n)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Stats.Dispatch != core.DispatchDense || warm.Stats.Warm != (step > 0) {
			t.Fatalf("step %d: stats %+v", step, warm.Stats)
		}
		cold, err := core.SolveQuality(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameProblem(warm.Problem(), cold.Problem()); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// sameProblem reports the first difference between two LPs.
func sameProblem(a, b *lp.Problem) error {
	if a.Sense != b.Sense {
		return fmt.Errorf("sense %v vs %v", a.Sense, b.Sense)
	}
	if err := sameRow("objective", a.Objective, b.Objective); err != nil {
		return err
	}
	if len(a.Constraints) != len(b.Constraints) {
		return fmt.Errorf("%d rows vs %d", len(a.Constraints), len(b.Constraints))
	}
	for i, ca := range a.Constraints {
		cb := b.Constraints[i]
		if ca.Name != cb.Name || ca.Rel != cb.Rel || ca.RHS != cb.RHS {
			return fmt.Errorf("row %d: %q %v %v vs %q %v %v", i, ca.Name, ca.Rel, ca.RHS, cb.Name, cb.Rel, cb.RHS)
		}
		if err := sameRow(ca.Name, ca.Coeffs, cb.Coeffs); err != nil {
			return err
		}
	}
	return nil
}

func sameRow(name string, a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: %d coefficients vs %d", name, len(a), len(b))
	}
	for j := range a {
		if a[j] != b[j] {
			return fmt.Errorf("%s[%d]: %v vs %v", name, j, a[j], b[j])
		}
	}
	return nil
}
