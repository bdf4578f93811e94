// Package cube implements single-output cubes and covers in positional
// cube notation, the interchange representation between .pla files, the
// espresso-style two-level minimizer, and dense truth tables.
//
// Each input variable occupies two bits of one inline word (at most
// MaxVars variables):
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

// MaxVars is the widest cube the package represents: every variable's
// two bits fit one inline word, so a Cube is a comparable value that
// copies without allocating and serves directly as a map key.
const MaxVars = 32

// Cube is a product term over n ≤ MaxVars input variables. Variable i
// occupies bits 2i and 2i+1 of w; the bits above 2n are always zero, so
// == on cubes is literal-for-literal equality.
type Cube struct {
	n int
	w uint64
}

// evenMask selects bit0 of every variable pair.
const evenMask = 0x5555555555555555

// pairMask returns the bits of the first n variable pairs.
func pairMask(n int) uint64 {
	if n >= MaxVars {
		return ^uint64(0)
	}
	return 1<<uint(2*n) - 1
}

// varMask returns the bits of the first n variables of a minterm.
func varMask(n int) uint32 {
	if n >= MaxVars {
		return ^uint32(0)
	}
	return 1<<uint(n) - 1
}

// compact gathers the even bits of x (one per variable pair) into the
// low 32 bits, variable i landing at bit i.
func compact(x uint64) uint32 {
	x &= evenMask
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0f0f0f0f0f0f0f0f
	x = (x | x>>4) & 0x00ff00ff00ff00ff
	x = (x | x>>8) & 0x0000ffff0000ffff
	x = (x | x>>16) & 0x00000000ffffffff
	return uint32(x)
}

// spread is the inverse of compact: bit i of m lands at bit 2i.
func spread(m uint32) uint64 {
	x := uint64(m)
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	x = (x | x<<4) & 0x0f0f0f0f0f0f0f0f
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & evenMask
	return x
}

// New returns the full cube (every variable unconstrained) over n
// variables. It panics unless 0 ≤ n ≤ MaxVars.
func New(n int) Cube {
	if n < 0 || n > MaxVars {
		panic(fmt.Sprintf("cube: variable count %d outside [0,%d]", n, MaxVars))
	}
	return Cube{n: n, w: pairMask(n)}
}

// NumVars returns the number of input variables.
func (c Cube) NumVars() int { return c.n }

// Word returns the cube's literal pairs as one word (variable i at bits
// 2i and 2i+1). Two cubes of the same width are equal iff their words
// are; the word order is not Compare's. For cubes with disjoint
// supports, the word of their product is the AND of their words.
func (c Cube) Word() uint64 { return c.w }

// Val returns the literal state of variable i.
func (c Cube) Val(i int) Literal {
	if i < 0 || i >= c.n {
		panic(fmt.Sprintf("cube: var %d out of range [0,%d)", i, c.n))
	}
	return Literal(c.w >> (2 * uint(i)) & 3)
}

// SetVal returns c with variable i set to l; the receiver is unchanged.
func (c Cube) SetVal(i int, l Literal) Cube {
	if i < 0 || i >= c.n {
		panic(fmt.Sprintf("cube: var %d out of range [0,%d)", i, c.n))
	}
	sh := 2 * uint(i)
	c.w = c.w&^(3<<sh) | uint64(l&3)<<sh
	return c
}

func (c Cube) mustMatch(o Cube) {
	if c.n != o.n {
		panic(fmt.Sprintf("cube: variable count mismatch %d vs %d", c.n, o.n))
	}
}

// Masks returns the variables c binds to One and to Zero, with variable
// i at bit i. A variable in neither mask is Full (or, if both pair bits
// are clear, Empty).
func (c Cube) Masks() (ones, zeros uint32) {
	return compact(c.w >> 1 &^ c.w), compact(c.w &^ (c.w >> 1))
}

// FreeMask returns the Full variables of c, with variable i at bit i.
func (c Cube) FreeMask() uint32 { return compact(c.w & (c.w >> 1)) }

// boundPairs returns both bits of every variable pair that is not Full.
func (c Cube) boundPairs() uint64 {
	notFull := ^(c.w & (c.w >> 1)) & evenMask & pairMask(c.n)
	return notFull | notFull<<1
}

// Distance returns the number of variables in which c and o conflict
// (their literal intersection is empty). Distance 0 means the cubes
// intersect; distance 1 is the consensus condition.
func (c Cube) Distance(o Cube) int {
	c.mustMatch(o)
	x := c.w & o.w
	// A variable pair is 00 in x iff both its bits are clear.
	return bits.OnesCount64(^(x | x>>1) & evenMask & pairMask(c.n))
}

// Intersect returns the cube covering exactly the common minterms,
// and whether that intersection is non-empty.
func (c Cube) Intersect(o Cube) (Cube, bool) {
	if c.Distance(o) != 0 {
		return Cube{}, false
	}
	return Cube{n: c.n, w: c.w & o.w}, true
}

// Contains reports whether c covers every minterm of o (c ⊇ o).
func (c Cube) Contains(o Cube) bool {
	c.mustMatch(o)
	return o.w&^c.w == 0
}

// ContainsMinterm reports whether minterm m (binary encoding, variable 0
// the least significant bit) lies inside the cube.
func (c Cube) ContainsMinterm(m uint) bool {
	return FromMinterm(c.n, m).w&^c.w == 0
}

// DivisibleBy reports whether c carries every literal of d — the
// algebraic condition for c = (c/d)·d.
func (c Cube) DivisibleBy(d Cube) bool {
	c.mustMatch(d)
	return (c.w^d.w)&d.boundPairs() == 0
}

// Quotient returns c with every variable d binds raised to Full: the
// algebraic quotient c/d when c.DivisibleBy(d).
func (c Cube) Quotient(d Cube) Cube {
	c.mustMatch(d)
	return Cube{n: c.n, w: c.w | d.boundPairs()}
}

// NumLiterals returns the number of bound variables (not Full).
func (c Cube) NumLiterals() int {
	return bits.OnesCount64(c.boundPairs() & evenMask)
}

// Minterms calls fn for every minterm covered by the cube, in ascending
// binary order.
func (c Cube) Minterms(fn func(m uint)) {
	ones, zeros := c.Masks()
	free := c.FreeMask()
	if ones|zeros|free != varMask(c.n) {
		return // an Empty variable: no minterms
	}
	// Subsets of free in ascending order: s ← (s − free) & free.
	for s := uint32(0); ; {
		fn(uint(ones | s))
		if s = (s - free) & free; s == 0 {
			return
		}
	}
}

// FromMinterm returns the cube covering exactly minterm m (bits of m at
// or above n are ignored).
func FromMinterm(n int, m uint) Cube {
	c := New(n)
	v := uint32(m) & varMask(n)
	c.w = spread(v)<<1 | spread(^v&varMask(n))
	return c
}

// Compare orders cubes exactly as their String forms compare: variable 0
// first, '-' < '0' < '1' per variable, and a cube that is a prefix of a
// wider one first. It returns -1, 0 or +1.
func Compare(a, b Cube) int {
	if a.n != b.n {
		return compareWidths(a, b)
	}
	// Equal widths: the unused high pairs rank alike and cancel.
	return compareRanks(a.rank(), b.rank())
}

// compareWidths is Compare for cubes of different widths: the common
// prefix decides, and failing that the narrower cube is first.
func compareWidths(a, b Cube) int {
	m := pairMask(min(a.n, b.n))
	if r := compareRanks(a.rank()&m, b.rank()&m); r != 0 {
		return r
	}
	if a.n < b.n {
		return -1
	}
	return 1
}

// compareRanks compares two rank words at their lowest differing pair.
func compareRanks(ra, rb uint64) int {
	d := ra ^ rb
	if d == 0 {
		return 0
	}
	sh := uint(bits.TrailingZeros64(d)) &^ 1
	if ra>>sh&3 < rb>>sh&3 {
		return -1
	}
	return 1
}

// rank re-codes every variable pair by the byte order of its String
// character: Full ('-') 0, Zero ('0') 1, One ('1') 2, Empty ('?') 3.
// Pairs whose two bits agree (Full, Empty) swap; Zero and One stay.
// The unused pairs above n (00) rank as Empty.
func (c Cube) rank() uint64 {
	same := ^(c.w ^ c.w>>1) & evenMask
	return c.w ^ (same | same<<1)
}

// order returns a word whose unsigned order is Compare's among cubes of
// one width: the rank pairs reversed, so variable 0's pair is the most
// significant.
func (c Cube) order() uint64 {
	r := bits.Reverse64(c.rank())
	return r>>1&evenMask | r&evenMask<<1
}

// litOf maps a .pla literal character to its pair bits; 0 (Empty)
// marks a character that is not a literal.
var litOf = [256]uint8{'0': uint8(Zero), '1': uint8(One), '-': uint8(Full), '2': uint8(Full), 'x': uint8(Full), 'X': uint8(Full)}

// Parse builds a cube from a .pla-style literal string such as "01-1",
// given as a string or as its bytes. Character i binds variable i;
// accepted characters are '0', '1', '-', '2' and 'x'/'X' (the latter
// three all meaning unconstrained).
func Parse[S ~string | ~[]byte](s S) (Cube, error) {
	if len(s) > MaxVars {
		return Cube{}, fmt.Errorf("cube: %d variables exceed the %d-variable limit", len(s), MaxVars)
	}
	var w uint64
	for i := 0; i < len(s); i++ {
		l := litOf[s[i]]
		if l == 0 {
			return Cube{}, fmt.Errorf("cube: invalid literal character %q at position %d", s[i], i)
		}
		w |= uint64(l) << (2 * uint(i))
	}
	return Cube{n: len(s), w: w}, nil
}

// String renders the cube in .pla notation, e.g. "01-1".
func (c Cube) String() string {
	var b strings.Builder
	for i := 0; i < c.n; i++ {
		b.WriteByte(c.Val(i).Char())
	}
	return b.String()
}
