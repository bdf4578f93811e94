// Package espresso is a two-level logic minimizer in the ESPRESSO
// tradition: EXPAND / IRREDUNDANT / REDUCE passes. Up to DenseLimit
// inputs they run in cube space against the fixed on/off minterm sets
// (dense.go); wider functions use the unate recursion paradigm
// (tautology checking and complementation by cofactoring on the most
// binate variable).
//
// It stands in for the ESPRESSO binary the paper uses to size minimal
// SOPs (Fig. 2) and for the DC-consuming "conventional assignment" step
// of the synthesis flow: minimizing the on-set against the remaining
// DC-set is exactly how a conventional optimizer spends don't-cares.
//
// The minimizer is heuristic (like ESPRESSO itself): results are valid
// irredundant covers, not guaranteed minimum. Determinism is guaranteed —
// cube orderings are fixed — so experiments are reproducible.
package espresso

import (
	"relsyn/internal/cube"
)

// pollStride is how many cubes the per-cube loops of complement visit
// between polls: one node of the recursion can hold a million cubes.
const pollStride = 1024

// varCounts tallies, for each variable, how many cubes bind it to Zero
// and to One. poll (nil = never) is checked every pollStride cubes.
func varCounts(f *cube.Cover, poll func() error) (zeros, ones []int) {
	n := f.NumVars()
	zeros = make([]int, n)
	ones = make([]int, n)
	for k, c := range f.Cubes {
		if k%pollStride == pollStride-1 {
			check(poll)
		}
		for i := 0; i < n; i++ {
			switch c.Val(i) {
			case cube.Zero:
				zeros[i]++
			case cube.One:
				ones[i]++
			}
		}
	}
	return zeros, ones
}

// binateSelect returns the most binate variable of f — the variable
// maximizing min(#Zero, #One) bindings, ties broken toward more total
// bindings then lower index — or -1 if the cover is unate.
func binateSelect(f *cube.Cover, poll func() error) int {
	zeros, ones := varCounts(f, poll)
	best, bestMin, bestTot := -1, 0, 0
	for i := range zeros {
		lo := zeros[i]
		if ones[i] < lo {
			lo = ones[i]
		}
		tot := zeros[i] + ones[i]
		if lo > bestMin || (lo == bestMin && lo > 0 && tot > bestTot) {
			best, bestMin, bestTot = i, lo, tot
		}
	}
	if bestMin == 0 {
		return -1
	}
	return best
}

// mostBoundVar returns the variable bound by the most cubes, or -1 if no
// variable is bound (all cubes are the universe or the cover is empty).
func mostBoundVar(f *cube.Cover, poll func() error) int {
	zeros, ones := varCounts(f, poll)
	best, bestTot := -1, 0
	for i := range zeros {
		if t := zeros[i] + ones[i]; t > bestTot {
			best, bestTot = i, t
		}
	}
	return best
}

// hasFullCube reports whether some cube of f is the universe.
func hasFullCube(f *cube.Cover) bool {
	for _, c := range f.Cubes {
		if c.NumLiterals() == 0 {
			return true
		}
	}
	return false
}

// Tautology reports whether the cover evaluates to 1 on every minterm.
func Tautology(f *cube.Cover) bool {
	if len(f.Cubes) == 0 {
		return f.NumVars() == 0 // the empty product over zero vars is moot; treat as false
	}
	if hasFullCube(f) {
		return true
	}
	// Fast necessary condition: the cubes must jointly have at least 2^n
	// minterms (with multiplicity) to possibly cover the space.
	var total, space uint64
	space = 1 << uint(f.NumVars())
	for _, c := range f.Cubes {
		total += c.MintermCount()
		if total >= space {
			break
		}
	}
	if total < space {
		return false
	}
	x := binateSelect(f, nil)
	if x < 0 {
		// Unate cover without a universe cube is never a tautology.
		return false
	}
	lit0 := cube.New(f.NumVars()).SetVal(x, cube.Zero)
	lit1 := cube.New(f.NumVars()).SetVal(x, cube.One)
	return Tautology(f.Cofactor(lit0)) && Tautology(f.Cofactor(lit1))
}

// sharp returns the complement of a single cube as a disjoint cover:
// for each bound variable in index order, one cube flipping that variable
// with all earlier bound variables held at the cube's value.
func sharp(c cube.Cube) *cube.Cover {
	n := c.NumVars()
	out := cube.NewCover(n)
	prefix := cube.New(n)
	for i := 0; i < n; i++ {
		v := c.Val(i)
		if v == cube.Full {
			continue
		}
		flipped := prefix.SetVal(i, v^cube.Full) // Zero<->One
		out.Add(flipped)
		prefix = prefix.SetVal(i, v)
	}
	return out
}

// Complement returns ¬f as a cover, via unate recursion.
func Complement(f *cube.Cover) *cube.Cover { return complement(f, nil) }

// complement is Complement with poll (nil = never) checked at every
// node of the recursion, which is exponential in the worst case, and
// inside each node's per-cube scans; see check for how an interrupt
// unwinds.
func complement(f *cube.Cover, poll func() error) *cube.Cover {
	check(poll)
	n := f.NumVars()
	if len(f.Cubes) == 0 {
		return cube.CoverOf(n, cube.New(n)) // ¬0 = 1
	}
	if hasFullCube(f) {
		return cube.NewCover(n) // ¬1 = 0
	}
	if len(f.Cubes) == 1 {
		return sharp(f.Cubes[0])
	}
	x := binateSelect(f, poll)
	if x < 0 {
		x = mostBoundVar(f, poll)
	}
	lit0 := cube.New(n).SetVal(x, cube.Zero)
	lit1 := cube.New(n).SetVal(x, cube.One)
	c0 := complement(cofactor(f, lit0, poll), poll)
	c1 := complement(cofactor(f, lit1, poll), poll)
	out := cube.NewCover(n)
	mergeBranch(out, c0, x, cube.Zero)
	mergeBranch(out, c1, x, cube.One)
	if err := out.RemoveContainedPoll(poll); err != nil {
		panic(interrupted{err})
	}
	return out
}

// cofactor is f.Cofactor(p) with poll (nil = never) checked every
// pollStride cubes.
func cofactor(f *cube.Cover, p cube.Cube, poll func() error) *cube.Cover {
	out := cube.NewCover(f.NumVars())
	for k, c := range f.Cubes {
		if k%pollStride == pollStride-1 {
			check(poll)
		}
		if cf, ok := c.Cofactor(p); ok {
			out.Add(cf)
		}
	}
	return out
}

// mergeBranch adds lit·branch to out, re-binding variable x to v in each
// branch cube (branch cubes are cofactors, so x is Full in them). Cubes
// identical across branches would merge to x-free cubes; the containment
// cleanup in Complement handles the simple cases.
func mergeBranch(out, branch *cube.Cover, x int, v cube.Literal) {
	for _, c := range branch.Cubes {
		out.Add(c.SetVal(x, v))
	}
}

// CoverContainsCube reports whether the cover contains (covers every
// minterm of) cube c, by tautology of the cofactor.
func CoverContainsCube(f *cube.Cover, c cube.Cube) bool {
	return Tautology(f.Cofactor(c))
}
