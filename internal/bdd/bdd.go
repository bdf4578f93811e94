// Package bdd is a reduced ordered binary decision diagram (ROBDD)
// package with hash-consed nodes and a memoized ITE core — the role CUDD
// plays in the paper's tooling (maintaining and manipulating the on-,
// off-, and DC-sets of function specifications).
//
// Variable order is fixed at manager creation (natural order 0..n-1).
// Refs are indices into the manager's node arena; equality of Refs is
// functional equivalence (canonicity of ROBDDs).
package bdd

import (
	"fmt"

	"relsyn/internal/bitset"
	"relsyn/internal/cube"
)

// Ref identifies a BDD node within its Manager. The constants FalseRef
// and TrueRef are shared by all managers.
type Ref int32

// Terminal nodes.
const (
	FalseRef Ref = 0
	TrueRef  Ref = 1
)

type node struct {
	level  int32 // variable index; terminals use level = numVars
	lo, hi Ref
}

type triple struct {
	level  int32
	lo, hi Ref
}

type iteKey struct{ f, g, h Ref }

// Manager owns a node arena and operation caches for one variable order.
type Manager struct {
	numVars int
	nodes   []node
	unique  map[triple]Ref
	iteMemo map[iteKey]Ref
}

// New creates a manager for functions over numVars variables.
func New(numVars int) *Manager {
	if numVars < 0 || numVars > 1<<20 {
		panic(fmt.Sprintf("bdd: unsupported variable count %d", numVars))
	}
	m := &Manager{
		numVars: numVars,
		unique:  make(map[triple]Ref),
		iteMemo: make(map[iteKey]Ref),
	}
	term := int32(numVars)
	m.nodes = append(m.nodes, node{level: term}, node{level: term}) // false, true
	return m
}

// NumVars returns the manager's variable count.
func (m *Manager) NumVars() int { return m.numVars }

// Size returns the total number of live nodes in the arena (including the
// two terminals).
func (m *Manager) Size() int { return len(m.nodes) }

func (m *Manager) level(f Ref) int32 { return m.nodes[f].level }

// mk returns the canonical node (level, lo, hi), applying the reduction
// rule lo==hi and hash-consing.
func (m *Manager) mk(level int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	k := triple{level, lo, hi}
	if r, ok := m.unique[k]; ok {
		return r
	}
	m.nodes = append(m.nodes, node{level: level, lo: lo, hi: hi})
	r := Ref(len(m.nodes) - 1)
	m.unique[k] = r
	return r
}

// Var returns the function of single variable i.
func (m *Manager) Var(i int) Ref {
	if i < 0 || i >= m.numVars {
		panic(fmt.Sprintf("bdd: var %d out of range [0,%d)", i, m.numVars))
	}
	return m.mk(int32(i), FalseRef, TrueRef)
}

// NVar returns the complement of variable i.
func (m *Manager) NVar(i int) Ref {
	if i < 0 || i >= m.numVars {
		panic(fmt.Sprintf("bdd: var %d out of range [0,%d)", i, m.numVars))
	}
	return m.mk(int32(i), TrueRef, FalseRef)
}

// cofactors returns the level-l cofactors of f.
func (m *Manager) cofactors(f Ref, l int32) (lo, hi Ref) {
	n := m.nodes[f]
	if n.level == l {
		return n.lo, n.hi
	}
	return f, f
}

// ITE computes if-then-else(f, g, h), the universal binary operator.
func (m *Manager) ITE(f, g, h Ref) Ref {
	// Terminal cases.
	switch {
	case f == TrueRef:
		return g
	case f == FalseRef:
		return h
	case g == h:
		return g
	case g == TrueRef && h == FalseRef:
		return f
	}
	k := iteKey{f, g, h}
	if r, ok := m.iteMemo[k]; ok {
		return r
	}
	l := m.level(f)
	if gl := m.level(g); gl < l {
		l = gl
	}
	if hl := m.level(h); hl < l {
		l = hl
	}
	f0, f1 := m.cofactors(f, l)
	g0, g1 := m.cofactors(g, l)
	h0, h1 := m.cofactors(h, l)
	r := m.mk(l, m.ITE(f0, g0, h0), m.ITE(f1, g1, h1))
	m.iteMemo[k] = r
	return r
}

// Not returns ¬f.
func (m *Manager) Not(f Ref) Ref { return m.ITE(f, FalseRef, TrueRef) }

// And returns f ∧ g.
func (m *Manager) And(f, g Ref) Ref { return m.ITE(f, g, FalseRef) }

// Or returns f ∨ g.
func (m *Manager) Or(f, g Ref) Ref { return m.ITE(f, TrueRef, g) }

// Xor returns f ⊕ g.
func (m *Manager) Xor(f, g Ref) Ref { return m.ITE(f, m.Not(g), g) }

// Implies returns ¬f ∨ g.
func (m *Manager) Implies(f, g Ref) Ref { return m.ITE(f, g, TrueRef) }

// Restrict fixes variable i to value v in f (Shannon cofactor).
func (m *Manager) Restrict(f Ref, i int, v bool) Ref {
	if i < 0 || i >= m.numVars {
		panic(fmt.Sprintf("bdd: var %d out of range", i))
	}
	memo := make(map[Ref]Ref)
	var rec func(Ref) Ref
	rec = func(g Ref) Ref {
		n := m.nodes[g]
		if n.level > int32(i) {
			return g // below i or terminal: i does not occur
		}
		if r, ok := memo[g]; ok {
			return r
		}
		var r Ref
		if n.level == int32(i) {
			if v {
				r = n.hi
			} else {
				r = n.lo
			}
		} else {
			r = m.mk(n.level, rec(n.lo), rec(n.hi))
		}
		memo[g] = r
		return r
	}
	return rec(f)
}

// Exists existentially quantifies variable i out of f.
func (m *Manager) Exists(f Ref, i int) Ref {
	return m.Or(m.Restrict(f, i, false), m.Restrict(f, i, true))
}

// Forall universally quantifies variable i out of f.
func (m *Manager) Forall(f Ref, i int) Ref {
	return m.And(m.Restrict(f, i, false), m.Restrict(f, i, true))
}

// Eval evaluates f on the assignment encoded in minterm bits (variable i
// is bit i).
func (m *Manager) Eval(f Ref, minterm uint) bool {
	for f != TrueRef && f != FalseRef {
		n := m.nodes[f]
		if minterm>>uint(n.level)&1 == 1 {
			f = n.hi
		} else {
			f = n.lo
		}
	}
	return f == TrueRef
}

// SatCount returns the number of satisfying assignments of f over all
// numVars variables.
func (m *Manager) SatCount(f Ref) uint64 {
	memo := make(map[Ref]uint64)
	var rec func(Ref) uint64
	rec = func(g Ref) uint64 {
		if g == FalseRef {
			return 0
		}
		if g == TrueRef {
			return 1
		}
		if c, ok := memo[g]; ok {
			return c
		}
		n := m.nodes[g]
		// Count over the remaining variables below this node's level, then
		// scale: each child count is over vars (childLevel..numVars), missing
		// levels double the count.
		lo := rec(n.lo) << uint(m.level(n.lo)-n.level-1)
		hi := rec(n.hi) << uint(m.level(n.hi)-n.level-1)
		c := lo + hi
		memo[g] = c
		return c
	}
	return rec(f) << uint(m.level(f))
}

// FromCube builds the conjunction of a cube's literals.
func (m *Manager) FromCube(c cube.Cube) Ref {
	if c.NumVars() != m.numVars {
		panic(fmt.Sprintf("bdd: cube has %d vars, manager %d", c.NumVars(), m.numVars))
	}
	// Build bottom-up for linear node count.
	r := TrueRef
	for i := m.numVars - 1; i >= 0; i-- {
		switch c.Val(i) {
		case cube.One:
			r = m.mk(int32(i), FalseRef, r)
		case cube.Zero:
			r = m.mk(int32(i), r, FalseRef)
		case cube.Empty:
			return FalseRef
		}
	}
	return r
}

// FromCover builds the disjunction of a cover's cubes.
func (m *Manager) FromCover(cv *cube.Cover) Ref {
	r := FalseRef
	for _, c := range cv.Cubes {
		r = m.Or(r, m.FromCube(c))
	}
	return r
}

// FromBitset builds the characteristic function of a minterm set with
// 2^numVars bits.
func (m *Manager) FromBitset(s *bitset.Set) Ref {
	if s.Len() != 1<<uint(m.numVars) {
		panic(fmt.Sprintf("bdd: bitset has %d bits, want %d", s.Len(), 1<<uint(m.numVars)))
	}
	if m.numVars == 0 {
		if s.Test(0) {
			return TrueRef
		}
		return FalseRef
	}
	// Level l splits on bit l of the minterm index (variable 0 is the
	// least significant bit).
	var build func(level int32, prefix int) Ref
	build = func(level int32, prefix int) Ref {
		if level == int32(m.numVars) {
			if s.Test(prefix) {
				return TrueRef
			}
			return FalseRef
		}
		lo := build(level+1, prefix)
		hi := build(level+1, prefix|1<<uint(level))
		return m.mk(level, lo, hi)
	}
	return build(0, 0)
}

// ToBitset enumerates f's on-set into a 2^numVars bitset.
func (m *Manager) ToBitset(f Ref) *bitset.Set {
	size := 1 << uint(m.numVars)
	s := bitset.New(size)
	var rec func(g Ref, level int32, prefix int)
	rec = func(g Ref, level int32, prefix int) {
		if g == FalseRef {
			return
		}
		if level == int32(m.numVars) {
			s.Set(prefix)
			return
		}
		n := m.nodes[g]
		if n.level > level || g == TrueRef {
			// Variable `level` is free: recurse on both values of that bit.
			rec(g, level+1, prefix)
			rec(g, level+1, prefix|1<<uint(level))
			return
		}
		rec(n.lo, level+1, prefix)
		rec(n.hi, level+1, prefix|1<<uint(level))
	}
	rec(f, 0, 0)
	return s
}

// FlipVar returns f with variable i complemented: the characteristic
// function of {x : x ⊕ eᵢ ∈ f}. Applied to a set of minterms, it yields
// the set of their 1-Hamming neighbors along input i — the operation the
// reliability-driven assignment algorithms perform on the on-, off-, and
// DC-set BDDs.
func (m *Manager) FlipVar(f Ref, i int) Ref {
	if i < 0 || i >= m.numVars {
		panic(fmt.Sprintf("bdd: var %d out of range", i))
	}
	memo := make(map[Ref]Ref)
	var rec func(Ref) Ref
	rec = func(g Ref) Ref {
		n := m.nodes[g]
		if n.level > int32(i) {
			return g
		}
		if r, ok := memo[g]; ok {
			return r
		}
		var r Ref
		if n.level == int32(i) {
			r = m.mk(n.level, n.hi, n.lo) // swap children
		} else {
			r = m.mk(n.level, rec(n.lo), rec(n.hi))
		}
		memo[g] = r
		return r
	}
	return rec(f)
}

// ForEachMinterm calls fn for every satisfying minterm of f in ascending
// binary order, expanding variables absent from the BDD. fn returning
// false stops the enumeration early.
func (m *Manager) ForEachMinterm(f Ref, fn func(minterm uint) bool) {
	var rec func(g Ref, level int32, prefix uint) bool
	rec = func(g Ref, level int32, prefix uint) bool {
		if g == FalseRef {
			return true
		}
		if level == int32(m.numVars) {
			return fn(prefix)
		}
		n := m.nodes[g]
		if g == TrueRef || n.level > level {
			return rec(g, level+1, prefix) &&
				rec(g, level+1, prefix|1<<uint(level))
		}
		return rec(n.lo, level+1, prefix) &&
			rec(n.hi, level+1, prefix|1<<uint(level))
	}
	rec(f, 0, 0)
}

// NodeCount returns the number of distinct nodes reachable from f,
// including terminals.
func (m *Manager) NodeCount(f Ref) int {
	seen := map[Ref]bool{}
	var rec func(Ref)
	rec = func(g Ref) {
		if seen[g] {
			return
		}
		seen[g] = true
		if g == FalseRef || g == TrueRef {
			return
		}
		n := m.nodes[g]
		rec(n.lo)
		rec(n.hi)
	}
	rec(f)
	return len(seen)
}

// Support returns the sorted variable indices f depends on.
func (m *Manager) Support(f Ref) []int {
	seen := map[Ref]bool{}
	vars := map[int32]bool{}
	var rec func(Ref)
	rec = func(g Ref) {
		if seen[g] || g == FalseRef || g == TrueRef {
			return
		}
		seen[g] = true
		n := m.nodes[g]
		vars[n.level] = true
		rec(n.lo)
		rec(n.hi)
	}
	rec(f)
	out := make([]int, 0, len(vars))
	for v := int32(0); v < int32(m.numVars); v++ {
		if vars[v] {
			out = append(out, int(v))
		}
	}
	return out
}
