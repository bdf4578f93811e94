// Package aig implements and-inverter graphs: the technology-independent
// network representation between factored expressions and technology
// mapping. Construction applies constant propagation and structural
// hashing; Balance restructures AND trees for minimum depth; Cleanup
// removes logic unreachable from the primary outputs. Exhaustive
// bit-parallel simulation recovers exact truth tables (and hence signal
// probabilities) for the input counts used throughout the paper.
package aig

import (
	"fmt"
	"math/bits"

	"relsyn/internal/bitset"
	"relsyn/internal/factor"
)

// Lit is a literal: a node index with a phase bit (LSB). Lit 0 is the
// constant false, Lit 1 constant true.
type Lit uint32

// ConstFalse and ConstTrue are the constant literals of every graph.
const (
	ConstFalse Lit = 0
	ConstTrue  Lit = 1
)

// Not returns the complemented literal.
func (l Lit) Not() Lit { return l ^ 1 }

// Node returns the node index.
func (l Lit) Node() int { return int(l >> 1) }

// Compl reports whether the literal is complemented.
func (l Lit) Compl() bool { return l&1 == 1 }

// MakeLit builds a literal from node index and phase.
func MakeLit(node int, compl bool) Lit {
	l := Lit(node) << 1
	if compl {
		l |= 1
	}
	return l
}

type node struct {
	f0, f1 Lit // AND fanins; unused for the constant and PI nodes
}

// Graph is a mutable AIG. Node 0 is the constant-false node; nodes
// 1..NumPI are primary inputs; later nodes are ANDs whose fanins always
// precede them (topological by construction).
type Graph struct {
	numPI  int
	nodes  []node
	strash map[[2]Lit]Lit
	pos    []Lit
}

// New returns an empty graph with numPI primary inputs.
func New(numPI int) *Graph {
	g := &Graph{
		numPI:  numPI,
		nodes:  make([]node, 1+numPI),
		strash: make(map[[2]Lit]Lit),
	}
	return g
}

// NumPI returns the number of primary inputs.
func (g *Graph) NumPI() int { return g.numPI }

// NumNodes returns the number of AND nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) - 1 - g.numPI }

// NumPO returns the number of primary outputs.
func (g *Graph) NumPO() int { return len(g.pos) }

// PO returns the literal driving primary output i.
func (g *Graph) PO(i int) Lit { return g.pos[i] }

// PI returns the literal of primary input i.
func (g *Graph) PI(i int) Lit {
	if i < 0 || i >= g.numPI {
		panic(fmt.Sprintf("aig: PI %d out of range [0,%d)", i, g.numPI))
	}
	return MakeLit(1+i, false)
}

// AddPO registers a primary output and returns its index.
func (g *Graph) AddPO(l Lit) int {
	g.pos = append(g.pos, l)
	return len(g.pos) - 1
}

// isAnd reports whether node index i is an AND node.
func (g *Graph) isAnd(i int) bool { return i > g.numPI }

// Fanins returns the fanin literals of AND node i.
func (g *Graph) Fanins(i int) (Lit, Lit) {
	if !g.isAnd(i) {
		panic(fmt.Sprintf("aig: node %d is not an AND", i))
	}
	n := g.nodes[i]
	return n.f0, n.f1
}

// And returns the literal for a∧b, applying trivial rules and structural
// hashing.
func (g *Graph) And(a, b Lit) Lit {
	// Constant and identical/complementary operand rules.
	switch {
	case a == ConstFalse || b == ConstFalse:
		return ConstFalse
	case a == ConstTrue:
		return b
	case b == ConstTrue:
		return a
	case a == b:
		return a
	case a == b.Not():
		return ConstFalse
	}
	if a > b {
		a, b = b, a
	}
	key := [2]Lit{a, b}
	if l, ok := g.strash[key]; ok {
		return l
	}
	g.nodes = append(g.nodes, node{f0: a, f1: b})
	l := MakeLit(len(g.nodes)-1, false)
	g.strash[key] = l
	return l
}

// Or returns a∨b.
func (g *Graph) Or(a, b Lit) Lit { return g.And(a.Not(), b.Not()).Not() }

// Xor returns a⊕b.
func (g *Graph) Xor(a, b Lit) Lit {
	return g.Or(g.And(a, b.Not()), g.And(a.Not(), b))
}

// Mux returns s ? t : e.
func (g *Graph) Mux(s, t, e Lit) Lit {
	return g.Or(g.And(s, t), g.And(s.Not(), e))
}

// AndN folds And over a list (balanced pairwise for bounded depth).
func (g *Graph) AndN(ls []Lit) Lit {
	return g.foldBalanced(ls, ConstTrue, g.And)
}

// OrN folds Or over a list.
func (g *Graph) OrN(ls []Lit) Lit {
	return g.foldBalanced(ls, ConstFalse, g.Or)
}

func (g *Graph) foldBalanced(ls []Lit, identity Lit, op func(a, b Lit) Lit) Lit {
	if len(ls) == 0 {
		return identity
	}
	work := append([]Lit(nil), ls...)
	for len(work) > 1 {
		var next []Lit
		for i := 0; i+1 < len(work); i += 2 {
			next = append(next, op(work[i], work[i+1]))
		}
		if len(work)%2 == 1 {
			next = append(next, work[len(work)-1])
		}
		work = next
	}
	return work[0]
}

// FromExpr builds the expression into the graph and returns its literal.
func (g *Graph) FromExpr(e *factor.Expr) Lit {
	switch e.Kind {
	case factor.Const0:
		return ConstFalse
	case factor.Const1:
		return ConstTrue
	case factor.Lit:
		l := g.PI(e.Var)
		if e.Neg {
			l = l.Not()
		}
		return l
	case factor.And:
		ls := make([]Lit, len(e.Args))
		for i, a := range e.Args {
			ls[i] = g.FromExpr(a)
		}
		return g.AndN(ls)
	case factor.Or:
		ls := make([]Lit, len(e.Args))
		for i, a := range e.Args {
			ls[i] = g.FromExpr(a)
		}
		return g.OrN(ls)
	default:
		panic(fmt.Sprintf("aig: bad expr kind %d", e.Kind))
	}
}

// FromExprSubst builds the expression with literal variable v replaced
// by leaves[v] — the substitution form used when composing node-local
// factored functions into a larger graph.
func (g *Graph) FromExprSubst(e *factor.Expr, leaves []Lit) Lit {
	switch e.Kind {
	case factor.Const0:
		return ConstFalse
	case factor.Const1:
		return ConstTrue
	case factor.Lit:
		l := leaves[e.Var]
		if e.Neg {
			l = l.Not()
		}
		return l
	case factor.And:
		ls := make([]Lit, len(e.Args))
		for i, a := range e.Args {
			ls[i] = g.FromExprSubst(a, leaves)
		}
		return g.AndN(ls)
	case factor.Or:
		ls := make([]Lit, len(e.Args))
		for i, a := range e.Args {
			ls[i] = g.FromExprSubst(a, leaves)
		}
		return g.OrN(ls)
	default:
		panic(fmt.Sprintf("aig: bad expr kind %d", e.Kind))
	}
}

// Eval evaluates all POs on one input minterm (variable i is bit i).
func (g *Graph) Eval(minterm uint) []bool {
	val := make([]bool, len(g.nodes))
	for i := 0; i < g.numPI; i++ {
		val[1+i] = minterm>>uint(i)&1 == 1
	}
	litVal := func(l Lit) bool { return val[l.Node()] != l.Compl() }
	for i := 1 + g.numPI; i < len(g.nodes); i++ {
		n := g.nodes[i]
		val[i] = litVal(n.f0) && litVal(n.f1)
	}
	out := make([]bool, len(g.pos))
	for i, po := range g.pos {
		out[i] = litVal(po)
	}
	return out
}

// NodeTruthTables simulates the whole graph over all 2^NumPI input
// patterns and returns one bitset per node (indexed by node number) with
// the node's positive-phase value for each minterm. NumPI must be ≤ 20.
func (g *Graph) NodeTruthTables() []*bitset.Set {
	if g.numPI > 20 {
		panic(fmt.Sprintf("aig: %d inputs too many for exhaustive simulation", g.numPI))
	}
	size := 1 << uint(g.numPI)
	if g.numPI == 0 {
		size = 1
	}
	tts := make([]*bitset.Set, len(g.nodes))
	tts[0] = bitset.New(size) // constant false
	for i := 0; i < g.numPI; i++ {
		tts[1+i] = bitset.VarPattern(size, i)
	}
	litWords := func(l Lit, w int) uint64 {
		x := tts[l.Node()].Words()[w]
		if l.Compl() {
			x = ^x
		}
		return x
	}
	nw := (size + 63) / 64
	for i := 1 + g.numPI; i < len(g.nodes); i++ {
		n := g.nodes[i]
		s := bitset.New(size)
		w := s.Words()
		for wi := 0; wi < nw; wi++ {
			w[wi] = litWords(n.f0, wi) & litWords(n.f1, wi)
		}
		trimSet(s, size)
		tts[i] = s
	}
	return tts
}

// piWords[v] holds the minterms of a 64-minterm word with input v set,
// for the inputs that select bits within a word.
var piWords = [6]uint64{
	0xaaaaaaaaaaaaaaaa,
	0xcccccccccccccccc,
	0xf0f0f0f0f0f0f0f0,
	0xff00ff00ff00ff00,
	0xffff0000ffff0000,
	0xffffffff00000000,
}

// NodeOnCounts returns, for every node, how many of the 2^NumPI input
// patterns set it: the Count of each of NodeTruthTables' sets. It
// simulates one 64-pattern word at a time, so it keeps one word per
// node instead of a table per node. NumPI must be ≤ 20.
func (g *Graph) NodeOnCounts() []int {
	if g.numPI > 20 {
		panic(fmt.Sprintf("aig: %d inputs too many for exhaustive simulation", g.numPI))
	}
	size := 1 << uint(g.numPI)
	valid := ^uint64(0)
	if size < 64 {
		valid = 1<<uint(size) - 1
	}
	word := make([]uint64, len(g.nodes))
	counts := make([]int, len(g.nodes))
	litWord := func(l Lit) uint64 {
		if l.Compl() {
			return ^word[l.Node()]
		}
		return word[l.Node()]
	}
	for wi := 0; wi < (size+63)/64; wi++ {
		for v := 0; v < g.numPI; v++ {
			switch {
			case v < 6:
				word[1+v] = piWords[v]
			case wi>>uint(v-6)&1 == 1:
				word[1+v] = ^uint64(0)
			default:
				word[1+v] = 0
			}
		}
		for i := 1 + g.numPI; i < len(g.nodes); i++ {
			n := g.nodes[i]
			word[i] = litWord(n.f0) & litWord(n.f1)
		}
		for i, w := range word {
			counts[i] += bits.OnesCount64(w & valid)
		}
	}
	return counts
}

// trimSet zeroes bits at and above size in the final word.
func trimSet(s *bitset.Set, size int) {
	if rem := size % 64; rem != 0 {
		w := s.Words()
		w[len(w)-1] &= (1 << uint(rem)) - 1
	}
}

// TruthTable returns PO i's exact truth table as a 2^NumPI bitset.
func (g *Graph) TruthTable(i int) *bitset.Set {
	tts := g.NodeTruthTables()
	return g.LitTable(tts, g.pos[i])
}

// LitTable resolves a literal against precomputed node tables.
func (g *Graph) LitTable(tts []*bitset.Set, l Lit) *bitset.Set {
	t := tts[l.Node()]
	if l.Compl() {
		return t.Complement()
	}
	return t.Clone()
}

// Levels returns the AND-depth of every node (PIs and constant at 0).
func (g *Graph) Levels() []int {
	lv := make([]int, len(g.nodes))
	for i := 1 + g.numPI; i < len(g.nodes); i++ {
		n := g.nodes[i]
		l0, l1 := lv[n.f0.Node()], lv[n.f1.Node()]
		if l1 > l0 {
			l0 = l1
		}
		lv[i] = l0 + 1
	}
	return lv
}

// Depth returns the maximum PO level.
func (g *Graph) Depth() int {
	lv := g.Levels()
	d := 0
	for _, po := range g.pos {
		if l := lv[po.Node()]; l > d {
			d = l
		}
	}
	return d
}

// FanoutCounts returns, per node, how many fanin edges and POs reference
// it (regardless of phase).
func (g *Graph) FanoutCounts() []int {
	fo := make([]int, len(g.nodes))
	for i := 1 + g.numPI; i < len(g.nodes); i++ {
		n := g.nodes[i]
		fo[n.f0.Node()]++
		fo[n.f1.Node()]++
	}
	for _, po := range g.pos {
		fo[po.Node()]++
	}
	return fo
}

// Cleanup returns a new graph containing only logic reachable from the
// POs, preserving PO order. Node identities change; the mapping is not
// exposed.
func (g *Graph) Cleanup() *Graph {
	out := New(g.numPI)
	memo := make(map[int]Lit, len(g.nodes))
	memo[0] = ConstFalse
	for i := 0; i < g.numPI; i++ {
		memo[1+i] = out.PI(i)
	}
	var rebuild func(i int) Lit
	rebuild = func(i int) Lit {
		if l, ok := memo[i]; ok {
			return l
		}
		n := g.nodes[i]
		a := rebuild(n.f0.Node())
		if n.f0.Compl() {
			a = a.Not()
		}
		b := rebuild(n.f1.Node())
		if n.f1.Compl() {
			b = b.Not()
		}
		l := out.And(a, b)
		memo[i] = l
		return l
	}
	for _, po := range g.pos {
		l := rebuild(po.Node())
		if po.Compl() {
			l = l.Not()
		}
		out.AddPO(l)
	}
	return out
}

// Balance returns a functionally equivalent graph with AND trees
// rebuilt to minimal depth: multi-input conjunctions are re-gathered by
// walking through single-fanout positive AND edges, then recombined
// pairing the two shallowest operands first (Huffman style).
func (g *Graph) Balance() *Graph {
	fo := g.FanoutCounts()
	out := New(g.numPI)
	memo := make(map[int]Lit, len(g.nodes))
	memo[0] = ConstFalse
	for i := 0; i < g.numPI; i++ {
		memo[1+i] = out.PI(i)
	}
	// Incrementally tracked levels of the output graph, indexed by node.
	lvl := make([]int, 1+g.numPI)
	levels := func(l Lit) int { return lvl[l.Node()] }
	mkAnd := func(a, b Lit) Lit {
		r := out.And(a, b)
		for len(lvl) < len(out.nodes) {
			n := out.nodes[len(lvl)]
			l0, l1 := lvl[n.f0.Node()], lvl[n.f1.Node()]
			if l1 > l0 {
				l0 = l1
			}
			lvl = append(lvl, l0+1)
		}
		return r
	}
	var rebuild func(i int) Lit
	var collect func(l Lit, root int, leaves *[]Lit)
	collect = func(l Lit, root int, leaves *[]Lit) {
		ni := l.Node()
		if !l.Compl() && g.isAnd(ni) && fo[ni] == 1 && ni != root {
			n := g.nodes[ni]
			collect(n.f0, root, leaves)
			collect(n.f1, root, leaves)
			return
		}
		nl := rebuild(ni)
		if l.Compl() {
			nl = nl.Not()
		}
		*leaves = append(*leaves, nl)
	}
	rebuild = func(i int) Lit {
		if l, ok := memo[i]; ok {
			return l
		}
		n := g.nodes[i]
		var leaves []Lit
		collect(n.f0, i, &leaves)
		collect(n.f1, i, &leaves)
		// Pair shallowest first. Levels must be re-read as nodes are added;
		// with small operand lists the quadratic selection is fine.
		for len(leaves) > 1 {
			// Find two minimum-level leaves.
			i0, i1 := 0, 1
			if levels(leaves[i1]) < levels(leaves[i0]) {
				i0, i1 = i1, i0
			}
			for k := 2; k < len(leaves); k++ {
				lk := levels(leaves[k])
				if lk < levels(leaves[i0]) {
					i1 = i0
					i0 = k
				} else if lk < levels(leaves[i1]) {
					i1 = k
				}
			}
			merged := mkAnd(leaves[i0], leaves[i1])
			if i0 > i1 {
				i0, i1 = i1, i0
			}
			leaves[i0] = merged
			leaves = append(leaves[:i1], leaves[i1+1:]...)
		}
		l := leaves[0]
		memo[i] = l
		return l
	}
	for _, po := range g.pos {
		l := rebuild(po.Node())
		if po.Compl() {
			l = l.Not()
		}
		out.AddPO(l)
	}
	return out
}
