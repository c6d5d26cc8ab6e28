package core

import (
	"errors"
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"time"
)

// diffRandomNetwork draws a random valid network (mirroring the Figure 4
// instance generator, kept local to avoid a test-only dependency on
// internal/experiments).
func diffRandomNetwork(rng *rand.Rand, paths, transmissions int) *Network {
	ps := make([]Path, paths)
	var total float64
	for i := range ps {
		bw := (10 + rng.Float64()*90) * Mbps
		total += bw
		ps[i] = Path{
			Bandwidth: bw,
			Delay:     time.Duration(50+rng.IntN(450)) * time.Millisecond,
			Loss:      rng.Float64() * 0.3,
			Cost:      rng.Float64(),
		}
	}
	n := NewNetwork(0.8*total, time.Second, ps...)
	n.Transmissions = transmissions
	n.CostBound = total
	return n
}

// tiered pins a Solver's one-shot and Resolve calls to one dispatch
// tier, so differential tests can run both tiers on the same network.
type tiered struct {
	*Solver
	tier Dispatch
}

func newTiered(tier Dispatch) *tiered { return &tiered{Solver: NewSolver(), tier: tier} }

func (t *tiered) SolveQuality(n *Network) (*Solution, error) {
	return t.solveOn(n, solveReq{obj: objQuality}, t.tier)
}

func (t *tiered) SolveMinCost(n *Network, minQuality float64) (*Solution, error) {
	return t.solveOn(n, solveReq{obj: objMinCost, minQuality: minQuality}, t.tier)
}

func (t *tiered) SolveQualityRandom(n *Network, to *Timeouts) (*Solution, error) {
	return t.solveOn(n, solveReq{obj: objRandom, to: to}, t.tier)
}

func (t *tiered) Resolve(n *Network) (*Solution, error) {
	return t.resolveOn(n, solveReq{obj: objQuality}, t.tier)
}

func (t *tiered) ResolveMinCost(n *Network, minQuality float64) (*Solution, error) {
	return t.resolveOn(n, solveReq{obj: objMinCost, minQuality: minQuality}, t.tier)
}

func (t *tiered) ResolveQualityRandom(n *Network, to *Timeouts) (*Solution, error) {
	return t.resolveOn(n, solveReq{obj: objRandom, to: to}, t.tier)
}

// bothTiers is the dense and the column-generation tier, pinned.
func bothTiers() []*tiered { return []*tiered{newTiered(DispatchDense), newTiered(DispatchCG)} }

// TestPooledSolverMatchesExact is the differential property test for the
// pooled float solve paths: on ~200 randomized networks both dispatch
// tiers, pinned, must agree with the exact rational simplex (the paper's
// CGAL stand-in) on the optimal quality to 1e-6, and their splits must
// stay distributions. The trials rotate through the edge cases: no cost
// at all (free paths, no budget row), lossless paths, single
// transmission (m = 1), and a min-cost quality floor just above the
// certified optimum, which both tiers must reject as ErrInfeasible.
func TestPooledSolverMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xd1ff, 0x5eed))
	tiers := bothTiers()
	for trial := 0; trial < 200; trial++ {
		paths := 2 + rng.IntN(3)         // 2–4 paths
		transmissions := 2 + rng.IntN(2) // 2–3 transmissions
		if paths == 4 && transmissions == 3 {
			// 125 exact rational variables is disproportionately slow
			// under -race; the 4-path coverage stays at m = 2.
			transmissions = 2
		}
		kind := [...]string{"plain", "cost-free", "lossless", "m=1", "infeasible-floor"}[trial%5]
		if kind == "m=1" {
			transmissions = 1
		}
		net := diffRandomNetwork(rng, paths, transmissions)
		switch kind {
		case "cost-free":
			net.CostBound = math.Inf(1)
			for i := range net.Paths {
				net.Paths[i].Cost = 0
			}
		case "lossless":
			for i := range net.Paths {
				net.Paths[i].Loss = 0
			}
		}

		enet, err := ExactFromFloat(net)
		if err != nil {
			t.Fatalf("trial %d: exact conversion: %v", trial, err)
		}
		esol, err := SolveQualityExact(enet)
		if err != nil {
			t.Fatalf("trial %d: exact solve: %v", trial, err)
		}
		exact, _ := esol.Quality.Float64()

		for _, s := range tiers {
			sol, err := s.SolveQuality(net)
			if err != nil {
				t.Fatalf("trial %d (%s, %s): solve: %v", trial, kind, s.tier, err)
			}
			if sol.Stats.Dispatch != s.tier {
				t.Fatalf("trial %d: dispatch %v, want %v", trial, sol.Stats.Dispatch, s.tier)
			}
			if diff := math.Abs(sol.Quality - exact); diff > 1e-6 {
				t.Errorf("trial %d (%s, %s, paths=%d m=%d): quality %v vs exact %v (diff %v)",
					trial, kind, s.tier, paths, transmissions, sol.Quality, exact, diff)
			}
			// The split must remain a distribution.
			var mass float64
			for _, x := range sol.X {
				if x < -1e-9 {
					t.Fatalf("trial %d (%s): negative share %v", trial, s.tier, x)
				}
				mass += x
			}
			if math.Abs(mass-1) > 1e-6 {
				t.Errorf("trial %d (%s): split mass %v, want 1", trial, s.tier, mass)
			}
			if kind == "infeasible-floor" && exact < 1-1e-3 {
				if _, err := s.SolveMinCost(net, exact+1e-3); !errors.Is(err, ErrInfeasible) {
					t.Errorf("trial %d (%s): floor above exact optimum %v: got %v, want ErrInfeasible",
						trial, s.tier, exact, err)
				}
			}
		}
	}
}

// TestScalableSolversMatchExact: column generation, pinned at every
// size, must agree with the exact rational simplex (the paper's CGAL
// stand-in) to 1e-6 on ≥100 randomized networks.
func TestScalableSolversMatchExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xabcd, 0xef01))
	cg := newTiered(DispatchCG)
	for trial := 0; trial < 120; trial++ {
		paths := 2 + rng.IntN(3)         // 2–4 paths
		transmissions := 2 + rng.IntN(2) // 2–3 transmissions
		if paths == 4 && transmissions == 3 {
			// 125 exact rational variables is disproportionately slow
			// under -race; the 4-path coverage stays at m = 2.
			transmissions = 2
		}
		net := diffRandomNetwork(rng, paths, transmissions)

		enet, err := ExactFromFloat(net)
		if err != nil {
			t.Fatalf("trial %d: exact conversion: %v", trial, err)
		}
		esol, err := SolveQualityExact(enet)
		if err != nil {
			t.Fatalf("trial %d: exact solve: %v", trial, err)
		}
		exact, _ := esol.Quality.Float64()

		csol, err := cg.SolveQuality(net)
		if err != nil {
			t.Fatalf("trial %d: cg solve: %v", trial, err)
		}
		if diff := math.Abs(csol.Quality - exact); diff > 1e-6 {
			t.Errorf("trial %d (paths=%d m=%d): cg quality %v vs exact %v (diff %v, %d iterations, %d columns)",
				trial, paths, transmissions, csol.Quality, exact, diff, csol.Stats.CGIterations, csol.Stats.Columns)
		}
	}
}

// TestSolverReuseIsDeterministic: reusing one Solver across differently
// shaped problems must give byte-identical results to fresh solves —
// stale workspace contents must never leak into a later solve.
func TestSolverReuseIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	s := NewSolver()
	for trial := 0; trial < 40; trial++ {
		net := diffRandomNetwork(rng, 2+rng.IntN(5), 1+rng.IntN(3))
		reused, err := s.SolveQuality(net)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewSolver().SolveQuality(net)
		if err != nil {
			t.Fatal(err)
		}
		if reused.Quality != fresh.Quality {
			t.Fatalf("trial %d: reused solver quality %v != fresh %v", trial, reused.Quality, fresh.Quality)
		}
		for l := range reused.X {
			if reused.X[l] != fresh.X[l] {
				t.Fatalf("trial %d: X[%d] differs: %v vs %v", trial, l, reused.X[l], fresh.X[l])
			}
		}
	}
}

// TestSolveManyMatchesSequential: the batch API must return the same
// solutions, in order, as one-at-a-time solves.
func TestSolveManyMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	nets := make([]*Network, 32)
	for i := range nets {
		nets[i] = diffRandomNetwork(rng, 2+rng.IntN(4), 2)
	}
	sols, err := SolveMany(nets)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range nets {
		want, err := SolveQuality(n)
		if err != nil {
			t.Fatal(err)
		}
		if sols[i] == nil || sols[i].Quality != want.Quality {
			t.Errorf("batch[%d] quality %v, want %v", i, sols[i].Quality, want.Quality)
		}
	}
}

// TestSolveManyConcurrent hammers SolveMany from several goroutines at
// once — run under -race (the CI test target does) this is the
// data-race check for the shared solver pool and batch fan-out.
func TestSolveManyConcurrent(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 42))
	nets := make([]*Network, 24)
	for i := range nets {
		nets[i] = diffRandomNetwork(rng, 2+rng.IntN(3), 2)
	}
	want, err := SolveMany(nets)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sols, err := SolveMany(nets)
			if err != nil {
				t.Errorf("concurrent SolveMany: %v", err)
				return
			}
			for i := range sols {
				if sols[i].Quality != want[i].Quality {
					t.Errorf("concurrent batch[%d] quality %v, want %v", i, sols[i].Quality, want[i].Quality)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSolveManyError: a failing network reports an error and leaves the
// unfailed entries usable.
func TestSolveManyError(t *testing.T) {
	good := diffRandomNetwork(rand.New(rand.NewPCG(1, 2)), 2, 2)
	bad := &Network{} // no paths
	if _, err := SolveMany([]*Network{good, bad}); err == nil {
		t.Fatal("want error for invalid network")
	}
	sols, err := SolveMany([]*Network{good})
	if err != nil || sols[0] == nil {
		t.Fatalf("good-only batch failed: %v", err)
	}
}
