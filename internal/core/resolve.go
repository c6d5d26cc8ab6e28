package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"dmc/internal/fault"
	"dmc/internal/lp"
)

// Warm-path injection points. Errors injected here are absorbed by
// resolve's cold fallback; panics unwind to the caller like a real
// numerical crash.
var (
	fpResolveWarm = fault.Register("core.resolve.warm")
	fpCGReprice   = fault.Register("core.cg.reprice")
)

// Pool-retention parameters of the warm CG path. Every re-solve can add
// freshly priced columns; on a long drift trajectory the pool would
// otherwise grow without bound and the restricted master would slow past
// the cold solve it is meant to beat. Above cgTrimTrigger columns the
// warm path trims the pool down to the cgTrimKeep columns with the best
// reduced cost under the previous duals (always keeping the basic ones).
// A threshold-based trim does not work here: the master is massively
// degenerate — hundreds of combinations price within 1e-3 of zero — so
// ranking, not thresholding, is what bounds the pool. Columns a later
// drift genuinely needs are re-discovered by the pricing oracle.
// cgMaxPoolColumns is the hard backstop past which the warm state is
// dropped entirely (defensive; trimming keeps pools far below it).
const (
	cgTrimTrigger    = 512
	cgTrimKeep       = 256
	cgMaxPoolColumns = 8192
)

// solveObjective names which optimization a persistent re-solve state
// was built for. Reusing columns or a basis across objectives would be
// wrong (different masters, different duals), so the state is keyed on
// it alongside the network shape.
type solveObjective uint8

const (
	objQuality solveObjective = iota
	objMinCost
	objRandom
)

// resolveState is the persistent warm-start state behind the Resolve
// family: the shape key, the previous optimal basis, and the storage
// the previous Solution aliases — nothing a solve merely rebuilds. The
// tableau and, on the dense tier, the assembly arena are borrowed per
// solve. It is invalidated whenever the network shape (path count,
// transmissions, cost-boundedness), the objective, or the dispatch tier
// changes.
type resolveState struct {
	valid bool

	// Shape key.
	nPaths    int
	trans     int
	hasCost   bool
	dispatch  Dispatch
	objective solveObjective

	// Dense dispatch: the column values the previous Solution aliases,
	// re-evaluated in place each re-solve (the digits are the shape's
	// shared table).
	dense *columns

	// CG dispatch: the persistent column pool and pricing oracle.
	pool   *colSet
	pricer *pricer
	// rnd holds the random-delay pair tables (objRandom); its buffers
	// are reused across re-solves, the values re-tabulated each time.
	rnd *randomObjective
	// mcObj is the min-cost master objective buffer (objMinCost on the
	// CG dispatch; the Solution's master in Solver.asm references it).
	mcObj []float64

	// Optimal LP basis of the previous solve and, for the CG dispatch,
	// the pool size it was captured against.
	basis *lp.Basis
	lastN int
	// duals is the previous master's dual vector (CG dispatch), used to
	// score pooled columns for trimming.
	duals []float64
}

// solveReq carries one solve's objective and its parameters.
type solveReq struct {
	obj        solveObjective
	minQuality float64   // objMinCost
	to         *Timeouts // objRandom
}

// check validates the request's own parameters (the network is
// validated by the model builders).
func (r solveReq) check() error {
	if r.obj == objMinCost && (math.IsNaN(r.minQuality) || r.minQuality < 0 || r.minQuality > 1) {
		return fmt.Errorf("core: min quality %v outside [0,1]", r.minQuality)
	}
	return nil
}

// matches reports whether the warm state can serve the network on the
// given tier.
func (rs *resolveState) matches(n *Network, obj solveObjective, tier Dispatch) bool {
	return rs.valid &&
		rs.objective == obj &&
		rs.nPaths == len(n.Paths) &&
		rs.trans == n.transmissions() &&
		rs.hasCost == !math.IsInf(n.CostBound, 1) &&
		rs.dispatch == tier
}

// Resolve solves the deterministic-delay quality maximization (Eq. 10)
// incrementally: when the network shape (path count, transmissions,
// cost-boundedness) matches the previous Resolve call on this Solver and
// only the coefficients — λ, µ, per-path loss, delay, bandwidth, cost —
// drifted, the solve reuses everything structural from last time instead
// of starting cold:
//
//   - the dense column values are re-evaluated in place (no
//     re-allocation; the combination digits are a table shared by every
//     solve of the shape, and the tableau and assembly arena are
//     borrowed per solve),
//   - the column-generation pool is retained and repriced, so the
//     branch-and-bound pricing oracle only searches for columns the
//     drift actually made attractive,
//   - the previous optimal simplex basis is re-installed, skipping LP
//     Phase I whenever it is still feasible for the perturbed
//     coefficients (with dual-simplex repair when the drift left it
//     dual feasible, and automatic cold fallback otherwise), and later
//     CG iterations append their columns onto the hot tableau.
//
// The result is identical to a cold SolveQuality up to solver tolerance;
// Solution.Stats reports Warm, PhaseISkipped, and the pool hit counts.
// On a shape change — or any failure of the warm path — Resolve falls
// back to a cold solve transparently and re-primes the state.
//
// The returned Solution shares column storage with the Solver's warm
// state: it is valid until the next Resolve call on the same Solver,
// which rebuilds that storage in place. That includes Problem(), which
// a dense Solution assembles on demand from those columns. Callers that
// need a solution to outlive the next re-solve must extract what they
// need first (or use SolveQuality, which never reuses result storage).
// Like every Solver method, Resolve is not safe for concurrent use.
func (s *Solver) Resolve(n *Network) (*Solution, error) {
	return s.resolve(n, solveReq{obj: objQuality})
}

// ResolveMinCost is the incremental counterpart of SolveMinCost: §VI-A
// cost minimization under a quality floor, with the same warm-state
// reuse, result-invalidation contract, and cold fallback as Resolve.
// The floor itself may drift between calls — it is a constraint bound,
// not part of the network shape. A genuinely unattainable floor returns
// ErrInfeasible (the verdict is always certified cold) and re-primes
// the state on the next call.
func (s *Solver) ResolveMinCost(n *Network, minQuality float64) (*Solution, error) {
	return s.resolve(n, solveReq{obj: objMinCost, minQuality: minQuality})
}

// ResolveQualityRandom is the incremental counterpart of
// SolveQualityRandom: the §VI-B random-delay model under drifting
// delays, losses, and timeout tables, with the same warm-state reuse,
// result-invalidation contract, and cold fallback as Resolve. The pair
// tables are re-tabulated every call (they depend on the drifting
// delays); what warms is the column pool, the LP basis, and the
// column storage.
func (s *Solver) ResolveQualityRandom(n *Network, to *Timeouts) (*Solution, error) {
	return s.resolve(n, solveReq{obj: objRandom, to: to})
}

func (s *Solver) resolve(n *Network, req solveReq) (*Solution, error) {
	return s.resolveOn(n, req, dispatchFor(n))
}

// resolveOn is resolve on an explicit tier (in-package tests pin the
// tier to run both on the same network).
func (s *Solver) resolveOn(n *Network, req solveReq, tier Dispatch) (*Solution, error) {
	if err := req.check(); err != nil {
		return nil, err
	}
	if s.rs.matches(n, req.obj, tier) {
		sol, err := s.resolveWarm(n, req)
		if err == nil {
			return sol, nil
		}
		// An infeasible quality floor is a genuine, cold-certified
		// verdict — not a warm-state failure. Report it; the state was
		// already reset so the next call re-primes.
		if errors.Is(err, ErrInfeasible) {
			s.rs = resolveState{}
			return nil, err
		}
		// The warm state proved unusable (diverged column generation,
		// stale pool past its cap, …): drop it and solve cold. A stale
		// cache must never fail a solve that a cold path can do.
		s.rs = resolveState{}
	}
	return s.resolveCold(n, req, tier)
}

// resolveCold primes the warm state with a cold solve.
func (s *Solver) resolveCold(n *Network, req solveReq, tier Dispatch) (*Solution, error) {
	s.rs = resolveState{}
	var (
		sol *Solution
		err error
	)
	if tier == DispatchCG {
		sol, err = s.solveCG(n, req, true)
	} else {
		sol, err = s.solveDense(n, req, true)
	}
	if err != nil {
		s.rs = resolveState{}
		return nil, err
	}
	s.rs.valid = true
	s.rs.nPaths = len(n.Paths)
	s.rs.trans = n.transmissions()
	s.rs.hasCost = !math.IsInf(n.CostBound, 1)
	s.rs.dispatch = tier
	s.rs.objective = req.obj
	return sol, nil
}

// resolveWarmDense re-solves the dense dispatch: the dense column values
// are re-evaluated in place and solved from the previous optimal basis.
func (s *Solver) resolveWarmDense(n *Network, req solveReq) (*Solution, error) {
	m, err := newDenseModel(n, req)
	if err != nil {
		return nil, err
	}
	full := s.rs.dense
	if full == nil {
		return nil, fmt.Errorf("core: warm state has no cached columns")
	}
	if full.len() != m.nVars {
		return nil, fmt.Errorf("core: warm state shape mismatch (%d cached columns, %d needed)", full.len(), m.nVars)
	}
	denseColumns(m, req, full)

	lpSol, err := denseMaster(m, full, req,
		lp.Options{AssumeValid: true, CaptureBasis: true, WarmBasis: s.rs.basis})
	if err != nil {
		return nil, err
	}
	out := finishSolution(m, full, lpSol, req)
	out.Stats = SolveStats{
		Dispatch: DispatchDense, Columns: full.len(),
		Warm: true, PhaseISkipped: lpSol.PhaseISkipped,
	}
	s.rs.basis = lpSol.Basis
	return out, nil
}

// cgSetup builds the request's sparse model and CG objective, reusing
// rs's pricer and buffers when they exist and keeping the ones it
// builds there.
func cgSetup(n *Network, req solveReq, rs *resolveState) (*model, cgObjective, error) {
	if req.obj == objRandom {
		m, ro, err := randomModel(n, req.to, rs.rnd)
		if err != nil {
			return nil, nil, err
		}
		rs.rnd = ro
		return m, ro, nil
	}
	m, err := newSparseModel(n)
	if err != nil {
		return nil, nil, err
	}
	if rs.pricer == nil {
		rs.pricer = newPricer(m)
	} else {
		rs.pricer.bind(m)
	}
	if req.obj == objMinCost {
		mo := &minCostObjective{m: m, pr: rs.pricer, minQuality: req.minQuality, obj: rs.mcObj}
		return m, mo, nil
	}
	return m, &qualityObjective{m: m, pr: rs.pricer, costRow: true}, nil
}

// runObjectiveCG runs the objective's column-generation driver over the
// pool — the two-stage min-cost engine, or a plain runCG for the
// quality objectives — and assembles the Solution with its CG stats.
// Shared by the one-shot and Resolve CG paths; a non-nil sc marks the
// Resolve paths (reusable assembly arena, captured basis), and basis
// and skipFeasStage carry the warm state (nil/false on cold solves).
func (s *Solver) runObjectiveCG(sc *asmScratch, m *model, cs *colSet, obj cgObjective, basis *lp.Basis, certTol float64, skipFeasStage bool) (*Solution, *lp.Solution, error) {
	if o, ok := obj.(*minCostObjective); ok {
		sol, lpSol, err := s.minCostCG(sc, m, cs, o, basis, certTol, skipFeasStage)
		if sc != nil {
			s.rs.mcObj = o.obj
		}
		return sol, lpSol, err
	}
	prob, lpSol, iters, firstWarm, err := s.runCG(sc, m, cs, obj, basis, certTol, certTol, nil)
	if err != nil {
		return nil, nil, err
	}
	sol := m.newSolution(prob, &cs.cols, lpSol.X, lpSol.Objective, cs.pos)
	sol.Stats = SolveStats{
		Dispatch: DispatchCG, Columns: cs.cols.len(), CGIterations: iters,
		PhaseISkipped: firstWarm,
	}
	return sol, lpSol, nil
}

// resolveWarm dispatches the warm re-solve; any error other than an
// infeasible quality floor sends resolve down the cold path.
func (s *Solver) resolveWarm(n *Network, req solveReq) (*Solution, error) {
	if err := fpResolveWarm.Hit(); err != nil {
		return nil, err
	}
	switch s.rs.dispatch {
	case DispatchCG:
		return s.resolveWarmCG(n, req)
	default:
		return s.resolveWarmDense(n, req)
	}
}

// resolveWarmCG re-solves the column-generation dispatch: the pooled
// columns are repriced in place (every one a pricing-oracle call saved),
// and the CG loop continues from the previous optimal basis, appending
// newly priced columns onto the hot tableau.
func (s *Solver) resolveWarmCG(n *Network, req solveReq) (*Solution, error) {
	m, obj, err := cgSetup(n, req, &s.rs)
	if err != nil {
		return nil, err
	}
	cs := s.rs.pool
	if cs.cols.len() > cgMaxPoolColumns {
		return nil, fmt.Errorf("core: warm column pool exceeded %d columns", cgMaxPoolColumns)
	}
	if err := fpCGReprice.Hit(); err != nil {
		return nil, err
	}
	cs.reevaluate(m, obj)

	var basis *lp.Basis
	if s.rs.lastN == cs.cols.len() {
		basis = s.rs.basis
	}
	if cs.cols.len() > cgTrimTrigger {
		cs, basis = s.trimPool(m, basis, req)
	}
	poolHits := cs.cols.len()

	sol, lpSol, err := s.runObjectiveCG(s.asm, m, cs, obj, basis, cgCertTolWarm, true)
	if err != nil {
		return nil, err
	}
	sol.Stats.Warm = true
	sol.Stats.PoolHits = poolHits
	sol.Stats.PoolAdded = cs.cols.len() - poolHits

	s.rs.pool = cs
	s.rs.basis = lpSol.Basis
	s.rs.lastN = cs.cols.len()
	s.rs.duals = append(s.rs.duals[:0], lpSol.Dual...)
	return sol, nil
}

// trimPool compacts the warm column pool to the cgTrimKeep columns with
// the best pricing gain under the previous master's duals (evaluated on
// the already-repriced drifted columns), always keeping the basic ones.
// Returns the compact pool and the basis remapped onto it (nil when a
// basic column could not be preserved, which sends the master down the
// cold-LP path but keeps the pool win).
func (s *Solver) trimPool(m *model, basis *lp.Basis, req solveReq) (*colSet, *lp.Basis) {
	cs := s.rs.pool
	duals := s.rs.duals
	n := cs.cols.len()
	if n <= cgTrimKeep || duals == nil || len(duals) < m.base {
		return cs, basis
	}
	score := s.poolScore(m, duals, req)
	if score == nil {
		return cs, basis
	}

	rc := make([]float64, n)
	for j := 0; j < n; j++ {
		rc[j] = score(j)
	}

	keep := make([]bool, n)
	kept := 0
	// The all-blackhole column (packed key 0) is what keeps the master
	// feasible under ANY bandwidth/cost drift — x′_blackhole = 1 uses no
	// constrained resource. Trimming it can leave the restricted master
	// genuinely infeasible after a hostile drift, killing the warm state.
	for j := 0; j < n; j++ {
		if cs.keys[j] == 0 {
			keep[j] = true
			kept++
			break
		}
	}
	if basis != nil {
		for _, c := range basis.StructuralCols() {
			if c >= 0 && c < n && !keep[c] {
				keep[c] = true
				kept++
			}
		}
	}
	order := make([]int, n)
	for j := range order {
		order[j] = j
	}
	sort.Slice(order, func(a, b int) bool { return rc[order[a]] > rc[order[b]] })
	for _, j := range order {
		if kept >= cgTrimKeep {
			break
		}
		if !keep[j] {
			keep[j] = true
			kept++
		}
	}

	out := newColSet()
	perm := make([]int, n)
	for j := 0; j < n; j++ {
		if !keep[j] {
			perm[j] = -1
			continue
		}
		perm[j] = out.cols.len()
		out.pos[cs.keys[j]] = out.cols.len()
		out.keys = append(out.keys, cs.keys[j])
		out.cols.appendFrom(&cs.cols, j, m.base)
	}
	if basis != nil {
		basis = basis.Remap(out.cols.len(), perm)
	}
	return out, basis
}

// poolScore returns the per-column pricing gain under the previous
// master's duals for the request's objective (higher = more worth
// keeping), or nil when the dual vector does not match the expected
// layout.
func (s *Solver) poolScore(m *model, duals []float64, req solveReq) func(j int) float64 {
	cs := s.rs.pool
	λ := m.net.Rate
	base := m.base
	yBW := duals[:base-1]
	if req.obj == objMinCost {
		// Layout: bandwidth rows, quality floor, conservation.
		if len(duals) < base+1 {
			return nil
		}
		yQ, y0 := duals[base-1], duals[base]
		return func(j int) float64 {
			v := yQ*cs.cols.delivery[j] - λ*cs.cols.costs[j] + y0
			shares := cs.cols.shares[j*base : (j+1)*base]
			for i := 1; i < base; i++ {
				v += λ * yBW[i-1] * shares[i]
			}
			return v
		}
	}
	// Layout: bandwidth rows, the cost row when the budget is finite,
	// conservation.
	next := base - 1
	yCost := 0.0
	if !math.IsInf(m.net.CostBound, 1) {
		yCost = duals[next]
		next++
	}
	if len(duals) <= next {
		return nil
	}
	y0 := duals[next]
	return func(j int) float64 {
		v := cs.cols.delivery[j] - λ*yCost*cs.cols.costs[j] - y0
		shares := cs.cols.shares[j*base : (j+1)*base]
		for i := 1; i < base; i++ {
			v -= λ * yBW[i-1] * shares[i]
		}
		return v
	}
}
