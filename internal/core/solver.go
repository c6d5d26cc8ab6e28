package core

import (
	"fmt"
	"math"
	"sync"

	"dmc/internal/lp"
)

// denseMaxCombos is the dispatch crossover: networks whose combination
// space (n+1)^m holds at most this many columns solve by dense
// enumeration, larger ones by column generation, for every objective,
// one-shot and Resolve alike. Measured on a 2-vCPU Xeon (median of 12
// random instances, µs, dense vs CG): cold 10×2 (121 combos) 47 vs 59,
// 12×2 (169) 68 vs 100, 4×3 (125) 24 vs 10, 5×3 (216) 48 vs 14; warm
// re-solves 10×2 38 vs 23, 4×3 18 vs 6. So at m = 2 dense stays faster
// cold a little past the crossover and at m = 3 CG wins below it; 128
// splits the difference. What pins it from below is the daemon's tiny
// sessions (at most 25 combos): forcing CG there cost 12% more CPU per
// request and up to 10% more memory.
const denseMaxCombos = 128

// dispatchFor returns the solve tier for the network's combination
// space. It only reads sizes, so it is safe on unvalidated input.
func dispatchFor(n *Network) Dispatch {
	if _, ok := combinationCount(len(n.Paths)+1, n.transmissions(), denseMaxCombos); ok {
		return DispatchDense
	}
	return DispatchCG
}

// Solver is a reusable solve context. What it keeps between calls is
// only the warm start behind Resolve: the shape key, the last optimal
// basis and the column values the returned Solution aliases (plus, on
// the column-generation tier, the pool, the pricer and the assembly
// arena that Solution's master lives in). Everything a solve rebuilds
// anyway — the simplex tableau, the dense assembly arena, the
// combination digits — is borrowed from package-wide pools for the
// length of one solve, so an idle warm session costs its warm start and
// no workspace. A Solver is NOT safe for concurrent use; use one per
// goroutine or the SolveMany batch API.
type Solver struct {
	// rs is the persistent incremental re-solve state behind Resolve;
	// SolveQuality and the other one-shot entry points never touch it.
	rs resolveState
	// asm is the column-generation Resolve paths' assembly arena,
	// allocated on the first CG prime: their Solutions pin the
	// pooled-column master assembled here until the next Resolve. Dense
	// solves borrow theirs per call (asmPool).
	asm *asmScratch
}

// NewSolver returns a reusable Solver.
func NewSolver() *Solver { return &Solver{} }

// solverPool backs the package-level SolveQuality/SolveMinCost/
// SolveQualityRandom wrappers and the SolveMany workers.
var solverPool = sync.Pool{New: func() any { return NewSolver() }}

// tableauPool lends simplex tableaux to solves for the length of one
// call: a dense master borrows one around its SolveWith, a
// column-generation run for its whole loop (AppendSolve continues a
// tableau only within that loop). Every borrower starts with a full
// load, so nothing a previous borrower left behind is ever read.
var tableauPool = sync.Pool{New: func() any { return lp.NewSolver() }}

// asmPool lends dense solves their master-assembly arena. The returned
// dense Solution does not keep it: Solution.Problem re-assembles the
// master from the solution's own columns on demand.
var asmPool = sync.Pool{New: func() any { return new(asmScratch) }}

// SolveQuality solves the deterministic-delay quality maximization
// (Eq. 10) and returns the optimal sending strategy. The problem is
// always feasible — the blackhole path absorbs any excess traffic — so a
// non-optimal status indicates an internal error.
//
// Spaces of at most denseMaxCombos combinations are enumerated densely;
// larger ones — including counts that would overflow dense enumeration
// entirely — solve by column generation: a restricted master over a
// generated column pool, priced by an exact branch-and-bound oracle over
// the odometer space. Both tiers reach the same LP optimum;
// Solution.Stats reports which one ran.
func (s *Solver) SolveQuality(n *Network) (*Solution, error) {
	return s.solve(n, solveReq{obj: objQuality})
}

// SolveMinCost solves the §VI-A variant: minimize the expected total cost
// per second (objective Eq. 21) subject to the bandwidth rows, the
// conservation row, and a minimum communication quality (Eq. 22's
// constraint, implemented as p·x ≥ minQuality; the paper writes the
// negated form — see DESIGN.md erratum #3).
//
// Returns ErrInfeasible wrapped in an error when the requested quality
// is unattainable on the given network.
//
// Dispatch follows SolveQuality. Column generation runs in two stages
// over one shared pool: quality-pricing rounds grow it until the master
// can reach the floor (or certify that nothing can), then cost-reduced
// pricing certifies the minimal cost.
func (s *Solver) SolveMinCost(n *Network, minQuality float64) (*Solution, error) {
	return s.solve(n, solveReq{obj: objMinCost, minQuality: minQuality})
}

// solve is the one-shot solve behind SolveQuality, SolveMinCost and
// SolveQualityRandom: it never touches the Resolve state and assembles
// fresh storage, so the returned Solution stays valid.
func (s *Solver) solve(n *Network, req solveReq) (*Solution, error) {
	return s.solveOn(n, req, dispatchFor(n))
}

// solveOn is solve on an explicit tier (in-package tests pin the tier
// to run both on the same network).
func (s *Solver) solveOn(n *Network, req solveReq, tier Dispatch) (*Solution, error) {
	if err := req.check(); err != nil {
		return nil, err
	}
	if tier == DispatchCG {
		return s.solveCG(n, req, false)
	}
	return s.solveDense(n, req, false)
}

// solveDense solves the request over the fully enumerated combination
// space. prime marks the Resolve cold path: the column tables and the
// optimal basis are kept for the next warm re-solve.
func (s *Solver) solveDense(n *Network, req solveReq, prime bool) (*Solution, error) {
	m, err := newDenseModel(n, req)
	if err != nil {
		return nil, err
	}
	cols := denseColumns(m, req, nil)
	lpSol, err := denseMaster(m, cols, req, lp.Options{AssumeValid: true, CaptureBasis: prime})
	if err != nil {
		return nil, err
	}
	out := finishSolution(m, cols, lpSol, req)
	out.Stats = SolveStats{Dispatch: DispatchDense, Columns: cols.len()}
	if prime {
		s.rs.dense = cols
		s.rs.basis = lpSol.Basis
	}
	return out, nil
}

// solveCG solves the request by column generation from a fresh seed
// pool. prime marks the Resolve cold path: the pricer, the pool, the
// optimal basis and the duals are kept for the next warm re-solve.
// One-shot solves build all of those fresh, so their Solutions share
// nothing with the Solver.
func (s *Solver) solveCG(n *Network, req solveReq, prime bool) (*Solution, error) {
	rs, sc := &resolveState{}, (*asmScratch)(nil)
	if prime {
		if s.asm == nil {
			s.asm = new(asmScratch)
		}
		rs, sc = &s.rs, s.asm
	}
	m, obj, err := cgSetup(n, req, rs)
	if err != nil {
		return nil, err
	}
	cs := newColSet()
	obj.seed(cs, make([]int, m.m))
	sol, lpSol, err := s.runObjectiveCG(sc, m, cs, obj, nil, cgPriceTol, false)
	if err != nil {
		return nil, err
	}
	if prime {
		sol.Stats.PoolAdded = cs.cols.len()
		s.rs.pool = cs
		s.rs.basis = lpSol.Basis
		s.rs.lastN = cs.cols.len()
		s.rs.duals = append(s.rs.duals[:0], lpSol.Dual...)
	}
	return sol, nil
}

// newDenseModel builds the dense model for a request, checking the
// request's structural preconditions (m = 2 and the timeout table for
// the random objective).
func newDenseModel(n *Network, req solveReq) (*model, error) {
	m, err := newModel(n)
	if err != nil {
		return nil, err
	}
	if req.obj == objRandom {
		if m.m != 2 {
			return nil, ErrRandomNeedsTwoTransmissions
		}
		if err := validateTimeouts(n, req.to); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// denseColumns evaluates the request's dense column tables, into cols
// when non-nil (the warm in-place rebuild) or freshly.
func denseColumns(m *model, req solveReq, cols *columns) *columns {
	if cols == nil {
		cols = newColumns(m.nVars, m.base, m.m)
	}
	if req.obj == objRandom {
		m.randomColumnsInto(cols, req.to)
	} else {
		m.computeColumnsInto(cols)
	}
	return cols
}

// denseMaster assembles and solves the dense master for the request's
// objective over the given columns; opts carries the warm basis when
// one applies. The assembly arena and the tableau are borrowed for this
// call only (the LP solution shares neither), so a panic mid-solve drops
// them instead of returning them to their pools.
func denseMaster(m *model, cols *columns, req solveReq, opts lp.Options) (*lp.Solution, error) {
	sc := asmPool.Get().(*asmScratch)
	lps := tableauPool.Get().(*lp.Solver)
	lpSol, err := lps.SolveWith(m.denseProblem(sc, cols, req), opts)
	tableauPool.Put(lps)
	asmPool.Put(sc)
	if err != nil {
		return nil, fmt.Errorf("core: solving LP: %w", err)
	}
	switch lpSol.Status {
	case lp.Optimal:
	case lp.Infeasible:
		if req.obj == objMinCost {
			return nil, fmt.Errorf("core: quality %v unattainable on this network: %w", req.minQuality, ErrInfeasible)
		}
		fallthrough
	default:
		return nil, fmt.Errorf("core: LP unexpectedly %v", lpSol.Status)
	}
	return lpSol, nil
}

// denseProblem assembles the dense master of the request's objective
// over cols, into sc when non-nil or into fresh storage.
func (m *model) denseProblem(sc *asmScratch, cols *columns, req solveReq) *lp.Problem {
	if req.obj != objMinCost {
		// objQuality and objRandom share the Eq. 10 master shape.
		return m.assembleProblemInto(sc, lp.Maximize, cols.delivery, cols, nil, true)
	}
	var obj []float64
	if sc != nil {
		sc.obj = grow(sc.obj, cols.len())
		obj = sc.obj
	} else {
		obj = make([]float64, cols.len())
	}
	λ := m.net.Rate
	for l, c := range cols.costs {
		obj[l] = λ * c // Eq. 21: (λ·cᵢ) + (λ·τᵢ·cⱼ), generalized
	}
	quality := lp.Constraint{Name: "quality", Coeffs: cols.delivery, Rel: lp.GE, RHS: req.minQuality}
	// No cost row: cost is the objective here, not a constraint (the
	// §VI-A formulation replaces the budget µ with the quality floor).
	return m.assembleProblemInto(sc, lp.Minimize, obj, cols, &quality, false)
}

// finishSolution builds the public Solution of a solved dense master,
// with the objective-appropriate quality: the LP objective for the
// quality objectives, the recomputed p·x for min-cost (whose LP
// objective is cost). The Solution keeps the request's objective and
// floor instead of the master, which Problem re-assembles on demand.
func finishSolution(m *model, cols *columns, lpSol *lp.Solution, req solveReq) *Solution {
	quality := lpSol.Objective
	if req.obj == objMinCost {
		quality = deliveredQuality(cols, lpSol.X)
	}
	out := m.newSolution(nil, cols, lpSol.X, quality, nil)
	out.obj, out.minQuality = req.obj, req.minQuality
	return out
}

// deliveredQuality is p·x over the given columns, clamped to [0, 1].
func deliveredQuality(cols *columns, x []float64) float64 {
	var q float64
	for l, v := range x {
		q += v * cols.delivery[l]
	}
	return clamp01(q)
}

// asmScratch is a reusable LP-assembly arena: the constraint headers,
// the flat coefficient backing, the min-cost objective and the Problem
// value itself, rewritten in place by assembleProblemInto. Dense solves
// borrow one per solve from asmPool; a Solver's column-generation
// Resolve paths keep their own (Solver.asm), so re-solves stop paying
// the dominant makeslice+clear cost of problem construction.
type asmScratch struct {
	prob    lp.Problem
	cons    []lp.Constraint
	backing []float64
	obj     []float64 // dense min-cost objective (denseProblem)
}

// bandwidthRowNames are the first bandwidth rows' constraint names,
// formatted once rather than on every assembly.
var bandwidthRowNames = func() (names [128]string) {
	for i := range names {
		names[i] = fmt.Sprintf("bandwidth[%d]", i)
	}
	return names
}()

// bandwidthRowName names the bandwidth row of real path i.
func bandwidthRowName(i int) string {
	if i < len(bandwidthRowNames) {
		return bandwidthRowNames[i]
	}
	return fmt.Sprintf("bandwidth[%d]", i)
}

// assembleProblemInto builds the common LP skeleton around the given
// objective: bandwidth rows (Eqs. 14–15/29), an optional extra row (the
// §VI-A quality floor), the cost row (Eq. 16/30) when costRow is set and
// the budget is finite, and the conservation row Bx′ = 1 (Eq. 18). All
// constraint coefficient rows are carved from one flat backing array;
// slices from cols are referenced, never copied, so the Problem shares
// storage with the Solution's own column tables. It writes into a
// reusable scratch arena; a nil scratch allocates fresh storage (one-shot
// column generation, BuildLP and Solution.Problem, whose results must
// stay valid).
func (m *model) assembleProblemInto(sc *asmScratch, sense lp.Sense, obj []float64, cols *columns, extra *lp.Constraint, costRow bool) *lp.Problem {
	λ := m.net.Rate
	base, nVars := m.base, cols.len()
	hasCost := costRow && !math.IsInf(m.net.CostBound, 1)

	nRows := base - 1 + 1 // bandwidth rows + conservation
	if hasCost {
		nRows++
	}
	if extra != nil {
		nRows++
	}
	var cons []lp.Constraint
	var backing []float64
	if sc != nil {
		if cap(sc.cons) < nRows {
			sc.cons = make([]lp.Constraint, 0, nRows)
		}
		if cap(sc.backing) < nVars*nRows {
			sc.backing = make([]float64, nVars*nRows)
		}
		cons = sc.cons[:0]
		backing = sc.backing[:nVars*nRows]
	} else {
		cons = make([]lp.Constraint, 0, nRows)
		backing = make([]float64, nVars*nRows)
	}
	nextRow := func() []float64 {
		row := backing[:nVars:nVars]
		backing = backing[nVars:]
		return row
	}

	for i := 1; i < base; i++ {
		row := nextRow()
		for l := 0; l < nVars; l++ {
			row[l] = λ * cols.shares[l*base+i]
		}
		cons = append(cons, lp.Constraint{
			Name: bandwidthRowName(i - 1), Coeffs: row, Rel: lp.LE, RHS: m.paths[i].Bandwidth,
		})
	}
	if extra != nil {
		cons = append(cons, *extra)
	}
	if hasCost {
		row := nextRow()
		for l, c := range cols.costs {
			row[l] = λ * c
		}
		cons = append(cons, lp.Constraint{Name: "cost", Coeffs: row, Rel: lp.LE, RHS: m.net.CostBound})
	}
	ones := nextRow()
	for l := range ones {
		ones[l] = 1
	}
	cons = append(cons, lp.Constraint{Name: "conservation", Coeffs: ones, Rel: lp.EQ, RHS: 1})

	if sc != nil {
		sc.cons = cons
		sc.prob = lp.Problem{Sense: sense, Objective: obj, Constraints: cons}
		return &sc.prob
	}
	return &lp.Problem{Sense: sense, Objective: obj, Constraints: cons}
}

// newSolution assembles the public Solution from a solved x′ vector,
// sharing the column tables with the LP that produced it; a nil prob
// marks a dense solution, whose master Problem re-assembles. colIndex maps
// a combination's packed key to its position in the column tables (the
// CG pool); nil means the columns cover the dense space in enumeration
// order.
func (m *model) newSolution(prob *lp.Problem, cols *columns, x []float64, quality float64, colIndex map[uint64]int) *Solution {
	return &Solution{
		Network:  m.net,
		X:        x,
		Quality:  clamp01(quality),
		m:        m,
		problem:  prob,
		combos:   cols.combos,
		delivery: cols.delivery,
		shares:   cols.shares,
		costs:    cols.costs,
		colIndex: colIndex,
	}
}
