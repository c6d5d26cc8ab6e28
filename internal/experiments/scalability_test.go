package experiments

import (
	"strings"
	"testing"

	"dmc/internal/core"
)

// TestScalabilitySweep runs a reduced grid and checks the CG results
// agree with the full dense formulation where that is tractable (10×3).
func TestScalabilitySweep(t *testing.T) {
	pts, err := Scalability(ScalabilityConfig{
		Paths:         []int{10, 25},
		Transmissions: []int{3, 5},
		Runs:          2,
		Seed:          7,
		VerifyDense:   true,
		Parallel:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("got %d points, want 4", len(pts))
	}
	sawCG := false
	for _, p := range pts {
		if p.Quality <= 0 || p.Quality > 1 {
			t.Errorf("n=%d m=%d: quality %v outside (0,1]", p.Paths, p.Transmissions, p.Quality)
		}
		if p.Dispatch == core.DispatchCG {
			sawCG = true
			if p.CGIterations <= 0 || p.Columns <= 0 {
				t.Errorf("n=%d m=%d: CG ran with %d iterations, %d columns",
					p.Paths, p.Transmissions, p.CGIterations, p.Columns)
			}
		}
		if p.DenseAgrees > 1e-6 {
			t.Errorf("n=%d m=%d: scalable solve differs from dense by %v",
				p.Paths, p.Transmissions, p.DenseAgrees)
		}
		if p.Paths == 10 && p.Transmissions == 3 && p.DenseAgrees < 0 {
			t.Errorf("n=10 m=3: dense verification skipped")
		}
	}
	if !sawCG {
		t.Error("no grid point dispatched to column generation")
	}

	text := RenderScalability(pts)
	for _, want := range []string{"dispatch", "cg", "> 2^22"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q:\n%s", want, text)
		}
	}
}

// TestScalabilitySweepMinCost runs the §VI-A variant of the sweep on a
// reduced grid: every point must meet the quality floor, dispatch
// through CG where dense cannot reach, and agree with dense min-cost
// solves (relative cost gap) where they are tractable.
func TestScalabilitySweepMinCost(t *testing.T) {
	pts, err := Scalability(ScalabilityConfig{
		Paths:         []int{10, 25},
		Transmissions: []int{3, 5},
		Runs:          2,
		Seed:          7,
		VerifyDense:   true,
		Parallel:      true,
		MinCost:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sawCG := false
	for _, p := range pts {
		if p.Quality < 0.5-1e-6 {
			t.Errorf("n=%d m=%d: quality %v below the 0.5 floor", p.Paths, p.Transmissions, p.Quality)
		}
		if p.Dispatch == core.DispatchCG {
			sawCG = true
		}
		if p.DenseAgrees > 1e-6 {
			t.Errorf("n=%d m=%d: min-cost solve differs from dense by %v (relative)",
				p.Paths, p.Transmissions, p.DenseAgrees)
		}
		if p.Paths == 10 && p.Transmissions == 3 && p.DenseAgrees < 0 {
			t.Errorf("n=10 m=3: dense min-cost verification skipped")
		}
	}
	if !sawCG {
		t.Error("no min-cost grid point dispatched to column generation")
	}
}
