package core

import (
	"errors"
	"fmt"

	"dmc/internal/dist"
)

// ErrRandomNeedsTwoTransmissions is returned by SolveQualityRandom for
// m ≠ 2: the paper's random-delay extension (Eqs. 27–30) is formulated for
// one retransmission, and the timeout table t_{i,j} is pairwise.
var ErrRandomNeedsTwoTransmissions = errors.New("core: random-delay model requires Transmissions == 2")

// SolveQualityRandom solves the random-delay model with a pooled reusable
// Solver; see Solver.SolveQualityRandom.
func SolveQualityRandom(n *Network, to *Timeouts) (*Solution, error) {
	s := solverPool.Get().(*Solver)
	sol, err := s.SolveQualityRandom(n, to)
	solverPool.Put(s)
	return sol, err
}

// SolveQualityRandom solves the §VI-B random-delay model: path delays are
// distributions (Path.RandDelay, falling back to a point mass at
// Path.Delay), retransmissions fire at the given timeouts, and the LP
// coefficients follow Eqs. 27–30:
//
//	P(retransᵢⱼ) = 1 − P(dᵢ + d_min ≤ t_{i,j})·(1−τᵢ)                 (27)
//	p_l = P(dᵢ ≤ δ)(1−τᵢ) + P(retransᵢⱼ)·P(t_{i,j}+dⱼ ≤ δ)(1−τⱼ)      (28)
//
// with bandwidth (29) and cost (30) rows using P(retransᵢⱼ) in place of
// τᵢ. Combinations whose first attempt is the blackhole deliver nothing
// and are never retransmitted; combinations with an undefined timeout
// cannot retransmit in time (their delivery reduces to the first attempt).
//
// Dispatch follows SolveQuality on the pair count (n+1)²: column
// generation there scans the tabulated pair space exactly instead of
// branch-and-bound.
func (s *Solver) SolveQualityRandom(n *Network, to *Timeouts) (*Solution, error) {
	return s.solve(n, solveReq{obj: objRandom, to: to})
}

// validateTimeouts checks the timeout table matches the network's path
// count.
func validateTimeouts(n *Network, to *Timeouts) error {
	toSize := 0
	if to != nil {
		toSize = len(to.T)
	}
	if toSize != len(n.Paths) {
		return fmt.Errorf("core: timeout table size %d, want %d", toSize, len(n.Paths))
	}
	return nil
}

// randomColumns evaluates Eqs. 27–30 for every combination (m = 2) into
// flat column tables.
func (m *model) randomColumns(to *Timeouts) *columns {
	cols := newColumns(m.nVars, m.base, 2)
	m.randomColumnsInto(cols, to)
	return cols
}

// randomColumnsInto re-evaluates the dense random-delay column tables in
// place for a model whose coefficients (delays, losses, costs, timeouts)
// drifted but whose shape did not: cols must have been built for the
// same (nVars, base, 2). Every value is overwritten — the random-delay
// analogue of computeColumnsInto on the incremental warm path.
func (m *model) randomColumnsInto(cols *columns, to *Timeouts) {
	n := m.net
	δ := n.Lifetime
	ack := n.Paths[n.AckPathIndex()].delayDist()

	// rtt[i] is the distribution of dᵢ + d_min for real path i (1-based
	// model index i corresponds to Paths[i-1]).
	rtt := make([]*dist.Sum, m.base)
	for i := 1; i < m.base; i++ {
		rtt[i] = dist.NewSum(n.Paths[i-1].delayDist(), ack)
	}

	base, nVars := m.base, m.nVars
	clear(cols.shares)
	clear(cols.delivery)
	clear(cols.costs)
	for l := 0; l < nVars; l++ {
		i, j := l%base, l/base // cols.combos[l] in Eq. 13 order
		share := cols.shares[l*base : (l+1)*base]

		if m.isBlackhole(i) {
			// Dropped on arrival at the sender: nothing delivered,
			// nothing retransmitted, no cost.
			share[0] = 1
			continue
		}

		pi := n.Paths[i-1]
		di := pi.delayDist()
		firstInTime := di.CDF(δ)
		delivery := firstInTime * (1 - pi.Loss)
		share[i] += 1
		cost := pi.Cost

		// Retransmission leg.
		var pRetrans, pRetransDeliver float64
		if m.isBlackhole(j) {
			// Drop after first failure; charge the blackhole nominally.
			pRetrans = 1 - rtt[i].CDF(δ)*(1-pi.Loss)
			share[0] += pRetrans
		} else {
			pj := n.Paths[j-1]
			t, ok := to.Get(i-1, j-1)
			if ok {
				pRetrans = 1 - rtt[i].CDF(t)*(1-pi.Loss)
				pRetransDeliver = pj.delayDist().CDF(δ-t) * (1 - pj.Loss)
			} else {
				// No timeout makes the retransmission useful; a sender
				// assigned this combination would wait until the deadline
				// and the retransmission never delivers in time. The
				// column is dominated by (i, blackhole).
				pRetrans = 1 - rtt[i].CDF(δ)*(1-pi.Loss)
			}
			share[j] += pRetrans
			cost += pRetrans * pj.Cost
		}
		cols.delivery[l] = clamp01(delivery + pRetrans*pRetransDeliver)
		cols.costs[l] = cost
	}
}
