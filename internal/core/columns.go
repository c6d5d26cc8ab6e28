package core

import (
	"math"
	"sync"
	"time"
)

// columns holds the per-combination LP coefficient columns of Eq. 10 in
// flat form: one delivery probability and cost per combination, plus the
// send-share matrix stored row-major (combination l's share of model path
// i at shares[l*base+i]). A columns value is computed in a single pass
// over the combination space and is shared between the LP build and the
// returned Solution, so it must not be mutated after construction.
type columns struct {
	delivery []float64 // p_l (Eq. 12)
	costs    []float64 // r_l (Eq. 16)
	shares   []float64 // nCols × base, row-major
	combos   []Combo   // the shared dense digit table (denseCombos), or owned slices
}

// len returns the number of columns currently held.
func (c *columns) len() int { return len(c.delivery) }

// newColumns allocates the flat column tables for the dense space of
// nVars combinations of trans path digits. The three value tables share
// one backing array; the digits are the shape's shared table.
func newColumns(nVars, base, trans int) *columns {
	backing := make([]float64, nVars*(base+2))
	return &columns{
		delivery: backing[:nVars:nVars],
		costs:    backing[nVars : 2*nVars : 2*nVars],
		shares:   backing[2*nVars:],
		combos:   denseCombos(nVars, base, trans),
	}
}

// comboTables caches the dense enumeration's digits per shape. The
// digits of column l depend only on (base, trans) — Eq. 13's
// little-endian odometer — so every solve and session of a shape shares
// one immutable table instead of writing its own. Only spaces a solve
// enumerates densely (at most denseMaxCombos combinations) are cached,
// which bounds the cache to a few hundred small tables; larger BuildLP
// spaces build theirs per call.
var comboTables sync.Map // comboShape → []Combo

type comboShape struct{ base, trans int }

// denseCombos returns the digits of every combination of the (base,
// trans) space in enumeration order. Cached tables are shared: callers
// must not write to them.
func denseCombos(nVars, base, trans int) []Combo {
	if nVars > denseMaxCombos {
		return enumerateCombos(nVars, base, trans)
	}
	key := comboShape{base, trans}
	if t, ok := comboTables.Load(key); ok {
		return t.([]Combo)
	}
	t, _ := comboTables.LoadOrStore(key, enumerateCombos(nVars, base, trans))
	return t.([]Combo)
}

// enumerateCombos steps an odometer over the little-endian path digits
// (Eq. 13). One backing array carries every Combo; each is capped at its
// own digits, so an append to one never writes into the next.
func enumerateCombos(nVars, base, trans int) []Combo {
	combos := make([]Combo, nVars)
	backing := make([]int, nVars*trans)
	for l := range combos {
		c := Combo(backing[l*trans : (l+1)*trans : (l+1)*trans])
		if l > 0 {
			copy(c, combos[l-1])
			for k := 0; k < trans; k++ {
				c[k]++
				if c[k] < base {
					break
				}
				c[k] = 0
			}
		}
		combos[l] = c
	}
	return combos
}

// columnOf evaluates one combination's LP column — delivery probability,
// expected cost, and per-path send shares — in a single fused pass over
// its attempts. share must be a zeroed slice of length base; it is
// filled in place.
func (m *model) columnOf(combo []int, share []float64) (delivery, cost float64) {
	δ := m.net.Lifetime
	surv := 1.0
	var t time.Duration
	for _, i := range combo {
		p := &m.paths[i]
		share[i] += surv
		if i == 0 {
			// Blackhole: the data is deliberately dropped; later
			// attempts never happen and cost nothing.
			break
		}
		cost += surv * p.Cost
		arrival := t + p.Delay
		if arrival >= 0 && arrival <= δ { // guard overflow
			delivery += surv * (1 - p.Loss)
		}
		next := t + p.Delay + m.dmin
		if next < t { // overflow
			next = time.Duration(math.MaxInt64)
		}
		t = next
		surv *= p.Loss
		if surv == 0 {
			break
		}
	}
	return delivery, cost
}

// computeColumns evaluates every combination of the dense space once,
// in Eq. 13 enumeration order, via columnOf.
func (m *model) computeColumns() *columns {
	cols := newColumns(m.nVars, m.base, m.m)
	m.computeColumnsInto(cols)
	return cols
}

// computeColumnsInto re-evaluates the dense column tables in place for a
// model whose coefficients (λ, µ, loss, delay) drifted but whose shape
// (path count, transmissions) did not: cols must have been built by
// newColumns for the same (nVars, base, trans). Every value is
// overwritten and the digits are only read, so a re-solve allocates no
// column storage — the heart of the incremental warm path. Callers
// holding a Solution that shares cols see it change underneath them;
// Solver.Resolve documents that contract.
func (m *model) computeColumnsInto(cols *columns) {
	base := m.base
	clear(cols.shares)
	for l, combo := range cols.combos {
		cols.delivery[l], cols.costs[l] = m.columnOf(combo, cols.shares[l*base:(l+1)*base])
	}
}

// appendColumn evaluates combo's column via eval (the objective-specific
// column evaluation: deterministic columnOf, or the random-delay pair
// tables) and appends it, copying the digits. Used by the dynamically
// grown column sets of the column-generation solve paths.
func (c *columns) appendColumn(base int, eval func([]int, []float64) (float64, float64), combo []int) {
	start := len(c.shares)
	c.shares = append(c.shares, make([]float64, base)...)
	delivery, cost := eval(combo, c.shares[start:start+base])
	c.delivery = append(c.delivery, delivery)
	c.costs = append(c.costs, cost)
	c.combos = append(c.combos, append(Combo(nil), combo...))
}

// appendFrom copies column l of src. The combination digits are
// shared: appendColumn gave every pooled column its own, and they are
// never written after.
func (c *columns) appendFrom(src *columns, l, base int) {
	c.delivery = append(c.delivery, src.delivery[l])
	c.costs = append(c.costs, src.costs[l])
	c.shares = append(c.shares, src.shares[l*base:(l+1)*base]...)
	c.combos = append(c.combos, src.combos[l])
}
