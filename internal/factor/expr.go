// Package factor converts two-level covers (SOPs) into multi-level
// factored expressions via algebraic (weak) division and kernel
// extraction — the technology-independent restructuring step between
// espresso minimization and technology mapping, standing in for the
// factoring passes of SIS/Design Compiler.
package factor

import (
	"fmt"
	"strings"

	"relsyn/internal/cube"
)

// Kind discriminates expression nodes.
type Kind uint8

// Expression node kinds.
const (
	Const0 Kind = iota
	Const1
	Lit // a variable or its complement
	And // conjunction of Args
	Or  // disjunction of Args
)

// Expr is a factored Boolean expression tree.
type Expr struct {
	Kind Kind
	Var  int  // for Lit: variable index
	Neg  bool // for Lit: complemented
	Args []*Expr
}

// NewConst returns a constant expression.
func NewConst(v bool) *Expr {
	if v {
		return &Expr{Kind: Const1}
	}
	return &Expr{Kind: Const0}
}

// NewLit returns a literal expression.
func NewLit(v int, neg bool) *Expr { return &Expr{Kind: Lit, Var: v, Neg: neg} }

// NewAnd conjoins subexpressions, flattening nested Ands and applying
// constant rules.
func NewAnd(args ...*Expr) *Expr { return newNary(And, Const1, Const0, args) }

// NewOr disjoins subexpressions, flattening nested Ors and applying
// constant rules.
func NewOr(args ...*Expr) *Expr { return newNary(Or, Const0, Const1, args) }

func newNary(k Kind, identity, absorbing Kind, args []*Expr) *Expr {
	flat := make([]*Expr, 0, len(args))
	for _, a := range args {
		switch {
		case a == nil || a.Kind == identity:
		case a.Kind == absorbing:
			return &Expr{Kind: absorbing}
		case a.Kind == k:
			flat = append(flat, a.Args...)
		default:
			flat = append(flat, a)
		}
	}
	switch len(flat) {
	case 0:
		return &Expr{Kind: identity}
	case 1:
		return flat[0]
	}
	return &Expr{Kind: k, Args: flat}
}

// NumLiterals counts literal leaves — the classic factored-form cost.
func (e *Expr) NumLiterals() int {
	switch e.Kind {
	case Lit:
		return 1
	case And, Or:
		n := 0
		for _, a := range e.Args {
			n += a.NumLiterals()
		}
		return n
	default:
		return 0
	}
}

// Eval evaluates the expression on a minterm (variable i is bit i).
func (e *Expr) Eval(minterm uint) bool {
	switch e.Kind {
	case Const0:
		return false
	case Const1:
		return true
	case Lit:
		v := minterm>>uint(e.Var)&1 == 1
		return v != e.Neg
	case And:
		for _, a := range e.Args {
			if !a.Eval(minterm) {
				return false
			}
		}
		return true
	case Or:
		for _, a := range e.Args {
			if a.Eval(minterm) {
				return true
			}
		}
		return false
	default:
		panic(fmt.Sprintf("factor: bad expr kind %d", e.Kind))
	}
}

// String renders the expression with x<i> variables, e.g.
// "x0 (x1' + x2) + x3".
func (e *Expr) String() string {
	var b strings.Builder
	e.write(&b, false)
	return b.String()
}

func (e *Expr) write(b *strings.Builder, parenOr bool) {
	switch e.Kind {
	case Const0:
		b.WriteByte('0')
	case Const1:
		b.WriteByte('1')
	case Lit:
		fmt.Fprintf(b, "x%d", e.Var)
		if e.Neg {
			b.WriteByte('\'')
		}
	case And:
		for i, a := range e.Args {
			if i > 0 {
				b.WriteByte(' ')
			}
			a.write(b, true)
		}
	case Or:
		if parenOr {
			b.WriteByte('(')
		}
		for i, a := range e.Args {
			if i > 0 {
				b.WriteString(" + ")
			}
			a.write(b, false)
		}
		if parenOr {
			b.WriteByte(')')
		}
	}
}

// FromCube renders a cube as an And of literals.
func FromCube(c cube.Cube) *Expr {
	nodes := make([]Expr, 0, c.NumLiterals())
	for v := 0; v < c.NumVars(); v++ {
		switch c.Val(v) {
		case cube.One:
			nodes = append(nodes, Expr{Kind: Lit, Var: v})
		case cube.Zero:
			nodes = append(nodes, Expr{Kind: Lit, Var: v, Neg: true})
		case cube.Empty:
			return NewConst(false)
		}
	}
	switch len(nodes) {
	case 0:
		return NewConst(true)
	case 1:
		return &nodes[0]
	}
	lits := make([]*Expr, len(nodes))
	for i := range nodes {
		lits[i] = &nodes[i]
	}
	return &Expr{Kind: And, Args: lits}
}

// SOP renders a cover as the flat Or of its cube Ands (no factoring).
func SOP(cv *cube.Cover) *Expr {
	terms := make([]*Expr, 0, cv.Len())
	for _, c := range cv.Cubes {
		terms = append(terms, FromCube(c))
	}
	return NewOr(terms...)
}
