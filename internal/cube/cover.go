package cube

import (
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

// RemoveContainedPoll deletes every cube that is contained in another
// single cube of the cover (single-cube containment). poll (nil = never)
// is checked about every 2^20 containment tests, since the scan is
// quadratic in the cube count. A non-nil return from poll stops the scan
// and is returned; the cover's contents are then unspecified.
func (cv *Cover) RemoveContainedPoll(poll func() error) error {
	work := 0
	keep := cv.Cubes[:0]
	for i, c := range cv.Cubes {
		if work += len(cv.Cubes); poll != nil && work >= 1<<20 {
			work = 0
			if err := poll(); err != nil {
				return err
			}
		}
		contained := false
		for j, d := range cv.Cubes {
			if i == j {
				continue
			}
			if d.Contains(c) && !(c.Contains(d) && j > i) {
				// When two cubes are identical, keep the earlier one.
				contained = true
				break
			}
		}
		if !contained {
			keep = append(keep, c)
		}
	}
	cv.Cubes = keep
	return nil
}

// Sort orders cubes by descending minterm count, then in Compare order
// (lexicographic on the String form), giving deterministic output for
// serialization and tests.
func (cv *Cover) Sort() {
	slices.SortStableFunc(cv.Cubes, func(a, b Cube) int {
		// Fewer literals means more minterms.
		if la, lb := a.NumLiterals(), b.NumLiterals(); la != lb {
			return la - lb
		}
		return Compare(a, b)
	})
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
