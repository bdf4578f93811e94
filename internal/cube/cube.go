// Package cube implements single-output cubes and covers in positional
// cube notation, the interchange representation between .pla files, the
// espresso-style two-level minimizer, and dense truth tables.
//
// Each input variable occupies two bits in a packed word array:
// bit0 set means the cube admits the variable at 0, bit1 set means it
// admits the variable at 1. The four states are therefore
//
//	00  empty    (cube covers nothing; invalid in a cover)
//	01  Zero     (literal x̄: variable must be 0)
//	10  One      (literal x: variable must be 1)
//	11  Full     (variable unconstrained / don't care)
//
// A cube denotes the conjunction of its literals; a Cover denotes the
// disjunction of its cubes.
package cube

import (
	"fmt"
	"math/bits"
	"strings"
)

// Literal is the per-variable state of a cube.
type Literal uint8

// Literal values; see the package comment for the encoding.
const (
	Empty Literal = 0
	Zero  Literal = 1
	One   Literal = 2
	Full  Literal = 3
)

// Char returns the .pla character for the literal ('0', '1', '-').
func (l Literal) Char() byte {
	switch l {
	case Zero:
		return '0'
	case One:
		return '1'
	case Full:
		return '-'
	default:
		return '?'
	}
}

const varsPerWord = 32

// Cube is a product term over n input variables.
type Cube struct {
	n     int
	words []uint64
}

// New returns the full cube (every variable unconstrained) over n variables.
func New(n int) Cube {
	if n < 0 {
		panic("cube: negative variable count")
	}
	nw := (n + varsPerWord - 1) / varsPerWord
	c := Cube{n: n, words: make([]uint64, nw)}
	for i := range c.words {
		c.words[i] = ^uint64(0)
	}
	c.trim()
	return c
}

func (c *Cube) trim() {
	if rem := c.n % varsPerWord; rem != 0 && len(c.words) > 0 {
		c.words[len(c.words)-1] &= (1 << uint(2*rem)) - 1
	}
}

// NumVars returns the number of input variables.
func (c Cube) NumVars() int { return c.n }

// Val returns the literal state of variable i.
func (c Cube) Val(i int) Literal {
	if i < 0 || i >= c.n {
		panic(fmt.Sprintf("cube: var %d out of range [0,%d)", i, c.n))
	}
	return Literal(c.words[i/varsPerWord] >> (2 * (uint(i) % varsPerWord)) & 3)
}

// SetVal sets the literal state of variable i, returning the modified cube.
// Cube uses value semantics internally, so SetVal copies on write.
func (c Cube) SetVal(i int, l Literal) Cube {
	if i < 0 || i >= c.n {
		panic(fmt.Sprintf("cube: var %d out of range [0,%d)", i, c.n))
	}
	w := make([]uint64, len(c.words))
	copy(w, c.words)
	sh := 2 * (uint(i) % varsPerWord)
	w[i/varsPerWord] = w[i/varsPerWord]&^(3<<sh) | uint64(l)<<sh
	return Cube{n: c.n, words: w}
}

// Clone returns an independent copy of the cube.
func (c Cube) Clone() Cube {
	w := make([]uint64, len(c.words))
	copy(w, c.words)
	return Cube{n: c.n, words: w}
}

func (c Cube) mustMatch(o Cube) {
	if c.n != o.n {
		panic(fmt.Sprintf("cube: variable count mismatch %d vs %d", c.n, o.n))
	}
}

// Equal reports whether the two cubes are identical.
func (c Cube) Equal(o Cube) bool {
	if c.n != o.n {
		return false
	}
	for i, w := range c.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// evenMask selects bit0 of every variable pair, oddMask bit1.
const (
	evenMask = 0x5555555555555555
	oddMask  = 0xaaaaaaaaaaaaaaaa
)

// Distance returns the number of variables in which c and o conflict
// (their literal intersection is empty). Distance 0 means the cubes
// intersect; distance 1 is the consensus condition.
func (c Cube) Distance(o Cube) int {
	c.mustMatch(o)
	d := 0
	for i, w := range c.words {
		x := w & o.words[i]
		// A variable pair is 00 in x iff both its bits are clear.
		pairEmpty := ^(x | x>>1) & evenMask
		if i == len(c.words)-1 {
			// Mask out the unused trailing variable slots.
			if rem := c.n % varsPerWord; rem != 0 {
				pairEmpty &= (1 << uint(2*rem)) - 1
			}
		}
		d += bits.OnesCount64(pairEmpty)
	}
	return d
}

// Intersects reports whether the two cubes share at least one minterm.
func (c Cube) Intersects(o Cube) bool { return c.Distance(o) == 0 }

// Intersect returns the cube covering exactly the common minterms,
// and whether that intersection is non-empty.
func (c Cube) Intersect(o Cube) (Cube, bool) {
	c.mustMatch(o)
	w := make([]uint64, len(c.words))
	for i := range w {
		w[i] = c.words[i] & o.words[i]
	}
	r := Cube{n: c.n, words: w}
	for i := 0; i < c.n; i++ {
		if r.Val(i) == Empty {
			return Cube{}, false
		}
	}
	return r, true
}

// Contains reports whether c covers every minterm of o (c ⊇ o).
func (c Cube) Contains(o Cube) bool {
	c.mustMatch(o)
	for i, w := range o.words {
		if w&^c.words[i] != 0 {
			return false
		}
	}
	return true
}

// ContainsMinterm reports whether minterm m (binary encoding, variable 0
// the least significant bit) lies inside the cube.
func (c Cube) ContainsMinterm(m uint) bool {
	for i := 0; i < c.n; i++ {
		bit := Literal(One)
		if m>>uint(i)&1 == 0 {
			bit = Zero
		}
		if c.Val(i)&bit == 0 {
			return false
		}
	}
	return true
}

// Supercube returns the smallest cube containing both c and o.
func (c Cube) Supercube(o Cube) Cube {
	c.mustMatch(o)
	w := make([]uint64, len(c.words))
	for i := range w {
		w[i] = c.words[i] | o.words[i]
	}
	return Cube{n: c.n, words: w}
}

// Consensus returns the consensus cube of c and o and whether it exists.
// The consensus exists iff Distance(c, o) == 1; it is the supercube in the
// conflicting variable and the intersection elsewhere.
func (c Cube) Consensus(o Cube) (Cube, bool) {
	c.mustMatch(o)
	if c.Distance(o) != 1 {
		return Cube{}, false
	}
	r := New(c.n)
	for i := 0; i < c.n; i++ {
		a, b := c.Val(i), o.Val(i)
		if a&b == Empty {
			r = r.SetVal(i, a|b)
		} else {
			r = r.SetVal(i, a&b)
		}
	}
	return r, true
}

// Cofactor returns the Shannon cofactor of c with respect to cube p
// (espresso definition): empty if the cubes conflict, otherwise c with
// every variable that p binds raised to Full.
func (c Cube) Cofactor(p Cube) (Cube, bool) {
	c.mustMatch(p)
	if c.Distance(p) != 0 {
		return Cube{}, false
	}
	w := make([]uint64, len(c.words))
	for i := range w {
		// Raise to Full wherever p is not Full: result = c | ^p (within pairs).
		w[i] = c.words[i] | ^p.words[i]
	}
	r := Cube{n: c.n, words: w}
	r.trim()
	return r, true
}

// NumLiterals returns the number of bound variables (not Full).
func (c Cube) NumLiterals() int {
	lit := 0
	for i, w := range c.words {
		// A pair is Full iff both bits set; count pairs that are not 11.
		notFull := ^(w & (w >> 1)) & evenMask
		if i == len(c.words)-1 {
			if rem := c.n % varsPerWord; rem != 0 {
				notFull &= (1 << uint(2*rem)) - 1
			}
		}
		lit += bits.OnesCount64(notFull)
	}
	return lit
}

// MintermCount returns the number of minterms the cube covers: 2^(free vars).
func (c Cube) MintermCount() uint64 {
	free := c.n - c.NumLiterals()
	return 1 << uint(free)
}

// Minterms calls fn for every minterm covered by the cube, in ascending
// binary order.
func (c Cube) Minterms(fn func(m uint)) {
	freeVars := make([]int, 0, c.n)
	var base uint
	for i := 0; i < c.n; i++ {
		switch c.Val(i) {
		case One:
			base |= 1 << uint(i)
		case Full:
			freeVars = append(freeVars, i)
		case Empty:
			return
		}
	}
	total := uint(1) << uint(len(freeVars))
	for k := uint(0); k < total; k++ {
		m := base
		for j, v := range freeVars {
			if k>>uint(j)&1 == 1 {
				m |= 1 << uint(v)
			}
		}
		fn(m)
	}
}

// FromMinterm returns the cube covering exactly minterm m.
func FromMinterm(n int, m uint) Cube {
	c := New(n)
	for i := 0; i < n; i++ {
		l := Zero
		if m>>uint(i)&1 == 1 {
			l = One
		}
		sh := 2 * (uint(i) % varsPerWord)
		c.words[i/varsPerWord] = c.words[i/varsPerWord]&^(3<<sh) | uint64(l)<<sh
	}
	return c
}

// Parse builds a cube from a .pla-style literal string such as "01-1".
// Character i binds variable i; accepted characters are '0', '1', '-', '2'
// and 'x'/'X' (the latter three all meaning unconstrained).
func Parse(s string) (Cube, error) {
	c := New(len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
			c = c.SetVal(i, Zero)
		case '1':
			c = c.SetVal(i, One)
		case '-', '2', 'x', 'X':
			// already Full
		default:
			return Cube{}, fmt.Errorf("cube: invalid literal character %q at position %d", s[i], i)
		}
	}
	return c, nil
}

// String renders the cube in .pla notation, e.g. "01-1".
func (c Cube) String() string {
	var b strings.Builder
	for i := 0; i < c.n; i++ {
		b.WriteByte(c.Val(i).Char())
	}
	return b.String()
}
