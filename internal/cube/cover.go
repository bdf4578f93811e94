package cube

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Cover is a sum (disjunction) of cubes over a common variable count.
// A Cover with no cubes denotes the constant-0 function.
type Cover struct {
	n     int
	Cubes []Cube
}

// NewCover returns an empty cover over n variables.
func NewCover(n int) *Cover {
	return &Cover{n: n}
}

// CoverOf builds a cover from the given cubes, which must all have n vars.
func CoverOf(n int, cubes ...Cube) *Cover {
	c := NewCover(n)
	for _, cb := range cubes {
		c.Add(cb)
	}
	return c
}

// NumVars returns the number of input variables.
func (cv *Cover) NumVars() int { return cv.n }

// Len returns the number of cubes.
func (cv *Cover) Len() int { return len(cv.Cubes) }

// Add appends a cube to the cover.
func (cv *Cover) Add(c Cube) {
	if c.NumVars() != cv.n {
		panic(fmt.Sprintf("cube: adding %d-var cube to %d-var cover", c.NumVars(), cv.n))
	}
	cv.Cubes = append(cv.Cubes, c)
}

// Clone returns a deep copy of the cover.
func (cv *Cover) Clone() *Cover {
	out := &Cover{n: cv.n, Cubes: make([]Cube, len(cv.Cubes))}
	copy(out.Cubes, cv.Cubes)
	return out
}

// ContainsMinterm reports whether any cube covers minterm m.
func (cv *Cover) ContainsMinterm(m uint) bool {
	for _, c := range cv.Cubes {
		if c.ContainsMinterm(m) {
			return true
		}
	}
	return false
}

// LiteralCount returns the total number of literals across all cubes,
// the classic two-level cost measure.
func (cv *Cover) LiteralCount() int {
	total := 0
	for _, c := range cv.Cubes {
		total += c.NumLiterals()
	}
	return total
}

// Sort orders cubes by descending minterm count, then in Compare order
// (lexicographic on the String form), giving deterministic output for
// serialization and tests. Compare is 0 only for identical cubes, so the
// order is total and an unstable sort gives the one answer. Each cube's
// literal count and order word are computed once, not per comparison.
func (cv *Cover) Sort() {
	type keyed struct {
		lits  int
		order uint64
		c     Cube
	}
	var buf [64]keyed // a cover this small sorts without allocating
	keys := buf[:0]
	if len(cv.Cubes) > len(buf) {
		keys = make([]keyed, 0, len(cv.Cubes))
	}
	for _, c := range cv.Cubes {
		keys = append(keys, keyed{c.NumLiterals(), c.order(), c})
	}
	slices.SortFunc(keys, func(a, b keyed) int {
		// Fewer literals means more minterms.
		if a.lits != b.lits {
			return a.lits - b.lits
		}
		return cmp.Compare(a.order, b.order)
	})
	for i, k := range keys {
		cv.Cubes[i] = k.c
	}
}

// String renders the cover one cube per line.
func (cv *Cover) String() string {
	var b strings.Builder
	for i, c := range cv.Cubes {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(c.String())
	}
	return b.String()
}
