package espresso

import (
	"sort"

	"relsyn/internal/bitset"
	"relsyn/internal/cube"
)

// Cost is the two-level cost of a cover, ordered lexicographically:
// fewer cubes first, then fewer literals.
type Cost struct {
	Cubes    int
	Literals int
}

// CostOf measures a cover.
func CostOf(f *cube.Cover) Cost {
	return Cost{Cubes: f.Len(), Literals: f.LiteralCount()}
}

// Less reports whether c is strictly cheaper than o.
func (c Cost) Less(o Cost) bool {
	if c.Cubes != o.Cubes {
		return c.Cubes < o.Cubes
	}
	return c.Literals < o.Literals
}

// intersectsCover reports whether cube c shares a minterm with any cube
// of r.
func intersectsCover(c cube.Cube, r *cube.Cover) bool {
	for _, rc := range r.Cubes {
		if c.Distance(rc) == 0 {
			return true
		}
	}
	return false
}

// expandCube greedily raises literals of c to Full while the cube stays
// disjoint from the off-set cover r, producing a prime implicant of
// f = ¬r. Raise order prefers variables blocked by the fewest off-set
// cubes (cheapest first), ties toward lower index.
func expandCube(c cube.Cube, r *cube.Cover) cube.Cube {
	n := c.NumVars()
	type cand struct{ v, blockers int }
	var cands []cand
	for v := 0; v < n; v++ {
		if c.Val(v) == cube.Full {
			continue
		}
		raised := c.SetVal(v, cube.Full)
		b := 0
		for _, rc := range r.Cubes {
			if raised.Distance(rc) == 0 {
				b++
			}
		}
		cands = append(cands, cand{v, b})
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].blockers != cands[j].blockers {
			return cands[i].blockers < cands[j].blockers
		}
		return cands[i].v < cands[j].v
	})
	for _, cd := range cands {
		raised := c.SetVal(cd.v, cube.Full)
		if !intersectsCover(raised, r) {
			c = raised
		}
	}
	return c
}

// Expand replaces every cube of f with a prime implicant containing it,
// dropping cubes that become covered by an already-expanded prime.
// r must be (a cover of) the off-set of the function being minimized.
func Expand(f, r *cube.Cover) *cube.Cover {
	// Expand biggest cubes first: they are the most likely to swallow
	// others, maximizing the single-cube-containment harvest.
	work := f.Clone()
	work.Sort()
	out := cube.NewCover(f.NumVars())
	for _, c := range work.Cubes {
		covered := false
		for _, p := range out.Cubes {
			if p.Contains(c) {
				covered = true
				break
			}
		}
		if covered {
			continue
		}
		out.Add(expandCube(c, r))
	}
	out.RemoveContained()
	return out
}

// Irredundant greedily removes cubes of f that are covered by the rest of
// f together with the don't-care cover d. Cubes are visited from smallest
// to largest so that small cubes (cheap to re-cover) are discarded first.
func Irredundant(f, d *cube.Cover) *cube.Cover {
	work := f.Clone()
	work.Sort()
	// Sort gives big-first ordering; walk from the back (smallest).
	for i := work.Len() - 1; i >= 0; i-- {
		c := work.Cubes[i]
		rest := cube.NewCover(work.NumVars())
		for j, o := range work.Cubes {
			if j != i {
				rest.Add(o)
			}
		}
		if d != nil {
			for _, o := range d.Cubes {
				rest.Add(o)
			}
		}
		if CoverContainsCube(rest, c) {
			work.Cubes = append(work.Cubes[:i], work.Cubes[i+1:]...)
		}
	}
	return work
}

// Reduce shrinks each cube of f to the smallest cube that still covers
// the minterms no other cube (nor the DC cover d) takes care of. Reducing
// unlocks different expansions on the next EXPAND pass. The reduction is
// sequential: later cubes see earlier reductions.
func Reduce(f, d *cube.Cover) *cube.Cover {
	work := f.Clone()
	work.Sort()
	for i, c := range work.Cubes {
		rest := cube.NewCover(work.NumVars())
		for j, o := range work.Cubes {
			if j != i {
				rest.Add(o)
			}
		}
		if d != nil {
			for _, o := range d.Cubes {
				rest.Add(o)
			}
		}
		// The part of c not covered elsewhere is c ∩ ¬(rest cofactor c);
		// shrink c to the smallest cube containing it.
		q := rest.Cofactor(c)
		comp := Complement(q)
		if comp.Len() == 0 {
			// c is fully covered elsewhere; keep as-is (IRREDUNDANT's job).
			continue
		}
		sc := comp.Cubes[0]
		for _, cc := range comp.Cubes[1:] {
			sc = sc.Supercube(cc)
		}
		if reduced, ok := c.Intersect(sc); ok {
			work.Cubes[i] = reduced
		}
	}
	return work
}

// Minimize computes an irredundant prime cover of the incompletely
// specified single-output function with on-set cover `on` and don't-care
// cover `dc` (either may be nil for empty). The returned cover covers
// every on-set minterm, lies within on ∪ dc, and consists of prime
// implicants of on ∪ dc. Functions with up to DenseLimit inputs use the
// dense engine; larger ones use pure cube algebra.
func Minimize(on, dc *cube.Cover) *cube.Cover {
	cov, _ := MinimizeInterruptible(on, dc, nil)
	return cov
}

// interrupted carries the poll error out of the deep minimization loops.
type interrupted struct{ err error }

// MinimizeInterruptible is Minimize with a cooperative cancellation hook:
// poll (nil = never interrupt) is checked at cube granularity inside the
// EXPAND / IRREDUNDANT / REDUCE passes, and a non-nil return aborts the
// run with that error. The successful result is identical to Minimize's.
func MinimizeInterruptible(on, dc *cube.Cover, poll func() error) (cov *cube.Cover, err error) {
	n := on.NumVars()
	if dc == nil {
		dc = cube.NewCover(n)
	}
	if on.Len() == 0 {
		return cube.NewCover(n), nil
	}
	defer recoverInterrupt(poll, &err)
	if n <= DenseLimit {
		return minimizeDense(n, coverSet(n, on), coverSet(n, dc), on, poll), nil
	}
	return minimizeGeneric(on, dc, poll), nil
}

// MinimizeSets is MinimizeInterruptible for a function given as minterm
// sets over n inputs (dc may be nil): the answer is identical to
// MinimizeInterruptible on the covers of on's and dc's minterms, but on
// the dense path the sets are used as they are, without building covers.
func MinimizeSets(n int, on, dc *bitset.Set, poll func() error) (cov *cube.Cover, err error) {
	if on.None() {
		return cube.NewCover(n), nil
	}
	if n > DenseLimit {
		return MinimizeInterruptible(mintermCover(n, on), mintermCover(n, dc), poll)
	}
	defer recoverInterrupt(poll, &err)
	return minimizeDense(n, on, dc, mintermCover(n, on), poll), nil
}

// recoverInterrupt, deferred by the entry points, turns the panic check
// raises into the poll error; other panics propagate.
func recoverInterrupt(poll func() error, err *error) {
	if poll == nil {
		return
	}
	if r := recover(); r != nil {
		ie, ok := r.(interrupted)
		if !ok {
			panic(r)
		}
		*err = ie.err
	}
}

// check aborts the minimization via panic when poll reports an error; the
// panic is recovered at the MinimizeInterruptible boundary.
func check(poll func() error) {
	if poll == nil {
		return
	}
	if err := poll(); err != nil {
		panic(interrupted{err})
	}
}

// minimizeGeneric is the cover-algebra engine behind Minimize, usable at
// any width. poll (nil = never) is checked between passes.
func minimizeGeneric(on, dc *cube.Cover, poll func() error) *cube.Cover {
	if dc == nil {
		dc = cube.NewCover(on.NumVars())
	}
	if on.Len() == 0 {
		return cube.NewCover(on.NumVars())
	}
	// Off-set: complement of on ∪ dc, computed once.
	all := on.Clone()
	for _, c := range dc.Cubes {
		all.Add(c)
	}
	r := complement(all, poll)

	check(poll)
	f := Expand(on, r)
	f = Irredundant(f, dc)
	best := f
	bestCost := CostOf(f)
	for iter := 0; iter < 8; iter++ {
		check(poll)
		g := Reduce(best, dc)
		g = Expand(g, r)
		g = Irredundant(g, dc)
		cost := CostOf(g)
		if !cost.Less(bestCost) {
			break
		}
		best, bestCost = g, cost
	}
	best.Sort()
	return best
}

// Verify reports whether impl is a correct cover for (on, dc):
// impl ⊆ on∪dc and on ⊆ impl. Used by tests and as a post-condition in
// debug paths.
func Verify(impl, on, dc *cube.Cover) bool {
	all := on.Clone()
	if dc != nil {
		for _, c := range dc.Cubes {
			all.Add(c)
		}
	}
	for _, c := range impl.Cubes {
		if !CoverContainsCube(all, c) {
			return false
		}
	}
	for _, c := range on.Cubes {
		if !CoverContainsCube(impl, c) {
			return false
		}
	}
	return true
}
