package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"dmc/internal/lp"
)

// checkFeasibleSplit asserts a solution satisfies its own LP (every
// bandwidth, cost, floor and conservation row, and x ≥ 0) and that its
// split is a distribution.
func checkFeasibleSplit(t *testing.T, where string, sol *Solution) {
	t.Helper()
	if v := lp.Verify(sol.Problem(), sol.X, 1e-6); len(v) > 0 {
		t.Fatalf("%s: infeasible %s solution (warm %v, phase I skipped %v): %v",
			where, sol.Stats.Dispatch, sol.Stats.Warm, sol.Stats.PhaseISkipped, v[0].Desc)
	}
	var mass float64
	for _, x := range sol.X {
		mass += x
	}
	if math.Abs(mass-1) > 1e-6 {
		t.Fatalf("%s: split mass %v, want 1", where, mass)
	}
}

// TestResolveWarmStaysFeasible is the regression test for warm LP
// solves returning infeasible points: on this 20×4 drift chain the
// dual-simplex repair of a re-installed basis used to pivot on 1e-6
// elements, and session 4's 17th re-solve came back with Σx ≈ 1 + 7e-6
// and a bandwidth row over by 11 kb/s — returned as Optimal.
func TestResolveWarmStaysFeasible(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 204))
	for session := 0; session < 5; session++ {
		net := diffRandomNetwork(rng, 20, 4)
		s := NewSolver()
		for step := 0; step < 60; step++ {
			net = driftNetwork(rng, net, 0.1)
			sol, err := s.Resolve(net)
			if err != nil {
				t.Fatalf("session %d step %d: %v", session, step, err)
			}
			checkFeasibleSplit(t, fmt.Sprintf("session %d step %d", session, step), sol)
		}
	}
}

// TestWarmChainDifferential replays 60-step drift chains of the three
// Resolve entry points on both sides of the dispatch crossover. Every
// warm answer must satisfy its own LP, split exactly one unit of
// traffic, and agree with a cold solve of the same instance to 1e-6.
func TestWarmChainDifferential(t *testing.T) {
	const steps = 60
	type objective struct {
		name  string
		sizes [][2]int // paths × transmissions
		// resolve runs the warm solve, solve the cold reference.
		resolve, solve func(s *Solver, n *Network) (*Solution, error)
		// value is what the two must agree on; relative compares it
		// relative to its magnitude (costs scale with λ).
		value    func(*Solution) float64
		relative bool
	}
	const floor = 0.3
	objectives := []objective{
		{
			name:    "quality",
			sizes:   [][2]int{{3, 2}, {4, 3}, {10, 3}, {20, 4}},
			resolve: func(s *Solver, n *Network) (*Solution, error) { return s.Resolve(n) },
			solve:   func(s *Solver, n *Network) (*Solution, error) { return s.SolveQuality(n) },
			value:   func(sol *Solution) float64 { return sol.Quality },
		},
		{
			name:     "min-cost",
			sizes:    [][2]int{{3, 2}, {4, 3}, {10, 3}, {20, 4}},
			resolve:  func(s *Solver, n *Network) (*Solution, error) { return s.ResolveMinCost(n, floor) },
			solve:    func(s *Solver, n *Network) (*Solution, error) { return s.SolveMinCost(n, floor) },
			value:    func(sol *Solution) float64 { return sol.Cost() },
			relative: true,
		},
		{
			name:  "random",
			sizes: [][2]int{{3, 2}, {12, 2}},
			resolve: func(s *Solver, n *Network) (*Solution, error) {
				to, err := DeterministicTimeouts(n, 0)
				if err != nil {
					return nil, err
				}
				return s.ResolveQualityRandom(n, to)
			},
			solve: func(s *Solver, n *Network) (*Solution, error) {
				to, err := DeterministicTimeouts(n, 0)
				if err != nil {
					return nil, err
				}
				return s.SolveQualityRandom(n, to)
			},
			value: func(sol *Solution) float64 { return sol.Quality },
		},
	}
	for _, obj := range objectives {
		for _, size := range obj.sizes {
			t.Run(fmt.Sprintf("%s/%dx%d", obj.name, size[0], size[1]), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(uint64(size[0]), uint64(size[1])))
				net := diffRandomNetwork(rng, size[0], size[1])
				want := dispatchFor(net)
				warm, cold := NewSolver(), NewSolver()
				warmed := 0
				for step := 0; step <= steps; step++ {
					if step > 0 {
						net = driftNetwork(rng, net, 0.1)
					}
					where := fmt.Sprintf("step %d", step)
					wsol, werr := obj.resolve(warm, net)
					csol, cerr := obj.solve(cold, net)
					if cerr != nil {
						// A drifted min-cost floor can turn infeasible;
						// the warm path must reach the same verdict.
						if !errors.Is(cerr, ErrInfeasible) || !errors.Is(werr, ErrInfeasible) {
							t.Fatalf("%s: cold %v, warm %v", where, cerr, werr)
						}
						continue
					}
					if werr != nil {
						t.Fatalf("%s: warm: %v", where, werr)
					}
					if wsol.Stats.Dispatch != want {
						t.Fatalf("%s: dispatch %v, want %v", where, wsol.Stats.Dispatch, want)
					}
					checkFeasibleSplit(t, where, wsol)
					tol := 1e-6
					if obj.relative {
						tol *= 1 + math.Abs(obj.value(csol))
					}
					if gap := math.Abs(obj.value(wsol) - obj.value(csol)); gap > tol {
						t.Fatalf("%s: warm %.12g vs cold %.12g (gap %.3g)", where, obj.value(wsol), obj.value(csol), gap)
					}
					if wsol.Stats.Warm {
						warmed++
					}
				}
				if warmed < steps/2 {
					t.Fatalf("only %d of %d re-solves ran warm", warmed, steps)
				}
			})
		}
	}
}
