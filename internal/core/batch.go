package core

import (
	"fmt"

	"dmc/internal/conc"
)

// SolveMany solves the quality maximization (Eq. 10) for every network,
// fanning the solves across min(GOMAXPROCS, len(nets)) workers. Each
// solve borrows its tableau and assembly workspace from the shared
// pools, so large sweeps reuse them instead of reallocating per solve.
// Results are returned in input order. On error the first failure (by
// scheduling order, not necessarily input order) is returned together
// with the partial results; entries that did not solve are nil.
//
// SolveMany is safe for concurrent use from multiple goroutines.
func SolveMany(nets []*Network) ([]*Solution, error) {
	sols := make([]*Solution, len(nets))
	err := conc.ForEach(len(nets), func(i int) error {
		sol, err := SolveQuality(nets[i])
		if err != nil {
			return fmt.Errorf("core: batch solve %d: %w", i, err)
		}
		sols[i] = sol
		return nil
	})
	return sols, err
}
