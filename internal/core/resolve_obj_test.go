package core

import (
	"errors"
	"math/rand/v2"
	"testing"
)

// minCostTrajectory replays one drift trajectory through ResolveMinCost
// and checks every step against a cold SolveMinCost of the identical
// instance: costs and achieved qualities must agree to 1e-6, and every
// re-solve after the prime must report warm.
func minCostTrajectory(t *testing.T, rng *rand.Rand, warm *tiered, base *Network, floor float64, steps int, wantDispatch Dispatch) (skipped int) {
	t.Helper()
	cold := newTiered(warm.tier)

	first, err := warm.ResolveMinCost(base, floor)
	if err != nil {
		t.Fatalf("prime resolve: %v", err)
	}
	if first.Stats.Warm {
		t.Fatal("first resolve reported warm")
	}
	if first.Stats.Dispatch != wantDispatch {
		t.Fatalf("prime dispatch %v, want %v", first.Stats.Dispatch, wantDispatch)
	}

	net := base
	for step := 0; step < steps; step++ {
		net = driftNetwork(rng, net, 0.08)
		wsol, werr := warm.ResolveMinCost(net, floor)
		csol, cerr := cold.SolveMinCost(net, floor)
		if cerr != nil {
			// The drift can push the floor infeasible; the warm path
			// must reach the same verdict.
			if !errors.Is(cerr, ErrInfeasible) {
				t.Fatalf("step %d: cold: %v", step, cerr)
			}
			if !errors.Is(werr, ErrInfeasible) {
				t.Fatalf("step %d: cold infeasible but warm returned %v", step, werr)
			}
			// The state re-primes next call; keep drifting.
			continue
		}
		if werr != nil {
			t.Fatalf("step %d: warm resolve: %v", step, werr)
		}
		if gap := abs64(wsol.Cost() - csol.Cost()); gap > 1e-6*(1+csol.Cost()) {
			t.Fatalf("step %d: warm cost %v vs cold %v (gap %v, dispatch %v)",
				step, wsol.Cost(), csol.Cost(), gap, wsol.Stats.Dispatch)
		}
		if wsol.Quality < floor-1e-6 {
			t.Fatalf("step %d: warm quality %v below floor %v", step, wsol.Quality, floor)
		}
		if wsol.Stats.PhaseISkipped {
			skipped++
		}
	}
	return skipped
}

// TestResolveMinCostDifferentialDense replays min-cost drift
// trajectories through the dense dispatch.
func TestResolveMinCostDifferentialDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x3c05, 1))
	skipped := 0
	for traj := 0; traj < 25; traj++ {
		warm := newTiered(DispatchDense)
		base := diffRandomNetwork(rng, 2+rng.IntN(3), 2)
		skipped += minCostTrajectory(t, rng, warm, base, 0.25, 6, DispatchDense)
	}
	if skipped == 0 {
		t.Fatal("no dense min-cost re-solve ever skipped Phase I; the warm basis path is dead")
	}
}

// TestResolveMinCostDifferentialCG pins column generation and replays
// min-cost drift trajectories through the persistent pool + warm basis
// + incremental append path.
func TestResolveMinCostDifferentialCG(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x3c05, 2))
	warmed := 0
	for traj := 0; traj < 20; traj++ {
		warm := newTiered(DispatchCG)
		base := diffRandomNetwork(rng, 3+rng.IntN(3), 2+rng.IntN(2))
		cold := newTiered(DispatchCG)

		if _, err := warm.ResolveMinCost(base, 0.25); err != nil {
			t.Fatalf("prime: %v", err)
		}
		net := base
		for step := 0; step < 6; step++ {
			net = driftNetwork(rng, net, 0.08)
			wsol, err := warm.ResolveMinCost(net, 0.25)
			if err != nil {
				t.Fatalf("traj %d step %d: %v", traj, step, err)
			}
			csol, err := cold.SolveMinCost(net, 0.25)
			if err != nil {
				t.Fatalf("traj %d step %d cold: %v", traj, step, err)
			}
			if gap := abs64(wsol.Cost() - csol.Cost()); gap > 1e-6*(1+csol.Cost()) {
				t.Fatalf("traj %d step %d: warm cost %v vs cold %v (gap %v)",
					traj, step, wsol.Cost(), csol.Cost(), gap)
			}
			if !wsol.Stats.Warm || wsol.Stats.Dispatch != DispatchCG {
				t.Fatalf("traj %d step %d: stats %+v", traj, step, wsol.Stats)
			}
			if wsol.Stats.PoolHits == 0 {
				t.Fatalf("traj %d step %d: warm CG min-cost reported no pool hits", traj, step)
			}
			warmed++
		}
	}
	if warmed == 0 {
		t.Fatal("no warm CG min-cost step ever ran")
	}
}

// TestResolveMinCostInfeasibleDrift: a floor that drifts infeasible must
// report ErrInfeasible from the warm path (cold-certified), then
// re-prime transparently when it becomes feasible again.
func TestResolveMinCostInfeasibleDrift(t *testing.T) {
	warm := NewSolver()
	n := costedNetwork() // qmax = 1 at base rate
	if _, err := warm.ResolveMinCost(n, 0.99); err != nil {
		t.Fatal(err)
	}
	over := *n
	over.Rate = 200 * Mbps // capacity 100 Mbps: quality 1 impossible, 0.99 too
	if _, err := warm.ResolveMinCost(&over, 0.99); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible after drift, got %v", err)
	}
	sol, err := warm.ResolveMinCost(n, 0.99)
	if err != nil {
		t.Fatalf("re-prime after infeasible: %v", err)
	}
	if sol.Quality < 0.99-1e-9 {
		t.Fatalf("re-primed quality %v", sol.Quality)
	}
}

// randomResolveTimeouts derives a deterministic-delay timeout table for
// the drifted network — timeouts re-derived each step, as an adaptive
// deployment would.
func randomResolveTimeouts(t *testing.T, n *Network) *Timeouts {
	t.Helper()
	to, err := DeterministicTimeouts(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	return to
}

// TestResolveQualityRandomDifferential replays random-delay drift
// trajectories through dense and CG dispatch: warm re-solves must match
// cold SolveQualityRandom to 1e-6 while delays, losses, and the timeout
// table drift together.
func TestResolveQualityRandomDifferential(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x3c05, 3))
	for _, tier := range []Dispatch{DispatchDense, DispatchCG} {
		warmed, skipped := 0, 0
		for traj := 0; traj < 15; traj++ {
			warm, cold := newTiered(tier), newTiered(tier)
			base := diffRandomNetwork(rng, 2+rng.IntN(3), 2)
			if _, err := warm.ResolveQualityRandom(base, randomResolveTimeouts(t, base)); err != nil {
				t.Fatalf("prime: %v", err)
			}
			net := base
			for step := 0; step < 6; step++ {
				net = driftNetwork(rng, net, 0.08)
				to := randomResolveTimeouts(t, net)
				wsol, err := warm.ResolveQualityRandom(net, to)
				if err != nil {
					t.Fatalf("%v traj %d step %d: %v", tier, traj, step, err)
				}
				csol, err := cold.SolveQualityRandom(net, to)
				if err != nil {
					t.Fatalf("%v traj %d step %d cold: %v", tier, traj, step, err)
				}
				if gap := abs64(wsol.Quality - csol.Quality); gap > 1e-6 {
					t.Fatalf("%v traj %d step %d: warm %.12f vs cold %.12f (gap %.3e)",
						tier, traj, step, wsol.Quality, csol.Quality, gap)
				}
				if !wsol.Stats.Warm {
					t.Fatalf("%v traj %d step %d: not warm: %+v", tier, traj, step, wsol.Stats)
				}
				if wsol.Stats.Dispatch != tier {
					t.Fatalf("traj %d: dispatch %v", traj, wsol.Stats.Dispatch)
				}
				warmed++
				if wsol.Stats.PhaseISkipped {
					skipped++
				}
			}
		}
		if warmed == 0 {
			t.Fatalf("%v: no warm random re-solve ever ran", tier)
		}
		if skipped == 0 {
			t.Fatalf("%v: no random re-solve ever warm-started its first master", tier)
		}
	}
}

// TestResolveObjectiveSwitchGoesCold: switching objectives on one
// Solver must never reuse the other objective's columns or basis.
func TestResolveObjectiveSwitchGoesCold(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x3c05, 4))
	warm := NewSolver()
	n := diffRandomNetwork(rng, 3, 2)
	if _, err := warm.Resolve(n); err != nil {
		t.Fatal(err)
	}
	sol, err := warm.ResolveMinCost(n, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats.Warm {
		t.Fatal("objective switch (quality→min-cost) reused warm state")
	}
	rsol, err := warm.ResolveQualityRandom(n, randomResolveTimeouts(t, n))
	if err != nil {
		t.Fatal(err)
	}
	if rsol.Stats.Warm {
		t.Fatal("objective switch (min-cost→random) reused warm state")
	}
	// Same objective again: warm.
	d := driftNetwork(rng, n, 0.05)
	rsol2, err := warm.ResolveQualityRandom(d, randomResolveTimeouts(t, d))
	if err != nil {
		t.Fatal(err)
	}
	if !rsol2.Stats.Warm {
		t.Fatal("same-objective re-solve did not reuse warm state")
	}
	ref, err := SolveQualityRandom(d, randomResolveTimeouts(t, d))
	if err != nil {
		t.Fatal(err)
	}
	if gap := abs64(rsol2.Quality - ref.Quality); gap > 1e-6 {
		t.Fatalf("warm %.12f vs cold %.12f after objective churn", rsol2.Quality, ref.Quality)
	}
}

// TestResolveMinCostFloorDrift: the quality floor itself may drift
// between warm re-solves (it is an RHS, not network shape); results
// must keep matching cold solves.
func TestResolveMinCostFloorDrift(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x3c05, 5))
	warm := NewSolver()
	cold := NewSolver()
	base := diffRandomNetwork(rng, 3, 2)
	if _, err := warm.ResolveMinCost(base, 0.2); err != nil {
		t.Fatal(err)
	}
	floors := []float64{0.25, 0.4, 0.1, 0.55, 0.3}
	net := base
	for step, floor := range floors {
		net = driftNetwork(rng, net, 0.05)
		wsol, err := warm.ResolveMinCost(net, floor)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if !wsol.Stats.Warm {
			t.Fatalf("step %d: floor drift lost the warm state", step)
		}
		csol, err := cold.SolveMinCost(net, floor)
		if err != nil {
			t.Fatalf("step %d cold: %v", step, err)
		}
		if gap := abs64(wsol.Cost() - csol.Cost()); gap > 1e-6*(1+csol.Cost()) {
			t.Fatalf("step %d: warm cost %v vs cold %v", step, wsol.Cost(), csol.Cost())
		}
	}
}

// TestResolveMinCostCGScale runs one realistic CG-scale min-cost
// trajectory (40 paths × 4 transmissions, 2.8M combinations): warm
// re-solves must agree with cold and reuse the pool.
func TestResolveMinCostCGScale(t *testing.T) {
	if testing.Short() {
		t.Skip("CG-scale trajectory is slow under -short")
	}
	rng := rand.New(rand.NewPCG(0x3c05, 6))
	base := diffRandomNetwork(rng, 40, 4)
	warm, cold := NewSolver(), NewSolver()
	if _, err := warm.ResolveMinCost(base, 0.3); err != nil {
		t.Fatal(err)
	}
	net := base
	for step := 0; step < 3; step++ {
		net = driftNetwork(rng, net, 0.05)
		wsol, err := warm.ResolveMinCost(net, 0.3)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		csol, err := cold.SolveMinCost(net, 0.3)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if gap := abs64(wsol.Cost() - csol.Cost()); gap > 1e-6*(1+csol.Cost()) {
			t.Fatalf("step %d: warm %v vs cold %v", step, wsol.Cost(), csol.Cost())
		}
		if wsol.Stats.PoolHits == 0 {
			t.Fatalf("step %d: pool never hit", step)
		}
	}
}
