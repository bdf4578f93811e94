package factor

import (
	"math/bits"
	"slices"

	"relsyn/internal/cube"
)

// litOf encodes a literal as 2*var+1 for positive, 2*var for negative.
func litOf(v int, positive bool) int {
	l := 2 * v
	if positive {
		l++
	}
	return l
}

// litVal returns the cube.Literal a literal index binds.
func litVal(l int) (v int, val cube.Literal) {
	if l%2 == 1 {
		return l / 2, cube.One
	}
	return l / 2, cube.Zero
}

// litCounts tallies how many cubes of f contain each literal.
func litCounts(f *cube.Cover) []int {
	counts := make([]int, 2*f.NumVars())
	for _, c := range f.Cubes {
		ones, zeros := c.Masks()
		for ; ones != 0; ones &= ones - 1 {
			counts[litOf(bits.TrailingZeros32(ones), true)]++
		}
		for ; zeros != 0; zeros &= zeros - 1 {
			counts[litOf(bits.TrailingZeros32(zeros), false)]++
		}
	}
	return counts
}

// cubeHasLit reports whether cube c contains literal l.
func cubeHasLit(c cube.Cube, l int) bool {
	v, val := litVal(l)
	return c.Val(v) == val
}

// divideByLit returns the quotient cover f / literal l: cubes containing
// l, with l removed.
func divideByLit(f *cube.Cover, l int) *cube.Cover {
	v, _ := litVal(l)
	q := cube.NewCover(f.NumVars())
	q.Cubes = make([]cube.Cube, 0, f.Len())
	for _, c := range f.Cubes {
		if cubeHasLit(c, l) {
			q.Add(c.SetVal(v, cube.Full))
		}
	}
	return q
}

// mergeCubes returns the conjunction of two support-disjoint cubes.
func mergeCubes(a, b cube.Cube) cube.Cube {
	r, ok := a.Intersect(b)
	if !ok {
		// Algebraic products have disjoint supports, so this cannot happen
		// when called from Divide.
		panic("factor: merging conflicting cubes")
	}
	return r
}

// Divide performs algebraic (weak) division f / d, returning quotient and
// remainder covers such that f = q·d + r as cube sets, with q maximal.
// The quotient's cubes are in cube.Compare order.
func Divide(f, d *cube.Cover) (q, r *cube.Cover) {
	return newDividend(f).divide(d)
}

// dividend is a cover prepared for repeated division: its cubes in
// Compare order, for membership tests by binary search.
type dividend struct {
	f      *cube.Cover
	sorted []cube.Cube
}

func newDividend(f *cube.Cover) dividend {
	sorted := slices.Clone(f.Cubes)
	slices.SortFunc(sorted, cube.Compare)
	return dividend{f: f, sorted: sorted}
}

func (x dividend) has(c cube.Cube) bool {
	_, ok := slices.BinarySearchFunc(x.sorted, c, cube.Compare)
	return ok
}

func (x dividend) divide(d *cube.Cover) (q, r *cube.Cover) {
	f, n := x.f, x.f.NumVars()
	if d.Len() == 0 {
		return cube.NewCover(n), f.Clone()
	}
	// Quotient: the intersection over divisor cubes dc of
	// {c/dc : c ∈ f, dc ⊆ c}. Start from the first divisor cube's set;
	// a candidate k is in another one's iff k binds none of its
	// variables and k·dc ∈ f.
	q = cube.NewCover(n)
	for _, c := range f.Cubes {
		if c.DivisibleBy(d.Cubes[0]) {
			q.Cubes = append(q.Cubes, c.Quotient(d.Cubes[0]))
		}
	}
	slices.SortFunc(q.Cubes, cube.Compare)
	q.Cubes = slices.Compact(q.Cubes)
	q.Cubes = slices.DeleteFunc(q.Cubes, func(k cube.Cube) bool {
		for _, dc := range d.Cubes[1:] {
			if k.Quotient(dc) != k || !x.has(mergeCubes(k, dc)) {
				return true
			}
		}
		return false
	})
	// Remainder: cubes of f not produced by q·d.
	produced := make([]cube.Cube, 0, q.Len()*d.Len())
	for _, qc := range q.Cubes {
		for _, dc := range d.Cubes {
			produced = append(produced, mergeCubes(qc, dc))
		}
	}
	slices.SortFunc(produced, cube.Compare)
	r = cube.NewCover(n)
	r.Cubes = make([]cube.Cube, 0, f.Len())
	for _, c := range f.Cubes {
		if _, ok := slices.BinarySearchFunc(produced, c, cube.Compare); !ok {
			r.Add(c)
		}
	}
	return q, r
}

// largestCommonCube returns the cube of literals common to every cube of
// f (the universe cube if f is cube-free or empty).
func largestCommonCube(f *cube.Cover) cube.Cube {
	common := cube.New(f.NumVars())
	if f.Len() == 0 {
		return common
	}
	ones, zeros := f.Cubes[0].Masks()
	for _, c := range f.Cubes[1:] {
		o, z := c.Masks()
		ones, zeros = ones&o, zeros&z
	}
	for ; ones != 0; ones &= ones - 1 {
		common = common.SetVal(bits.TrailingZeros32(ones), cube.One)
	}
	for ; zeros != 0; zeros &= zeros - 1 {
		common = common.SetVal(bits.TrailingZeros32(zeros), cube.Zero)
	}
	return common
}

// makeCubeFree divides out the largest common cube.
func makeCubeFree(f *cube.Cover) *cube.Cover {
	cc := largestCommonCube(f)
	if cc.NumLiterals() == 0 {
		return f
	}
	out := cube.NewCover(f.NumVars())
	out.Cubes = make([]cube.Cube, len(f.Cubes))
	for i, c := range f.Cubes {
		out.Cubes[i] = c.Quotient(cc)
	}
	return out
}

// isCubeFree reports whether no literal is shared by all cubes.
func isCubeFree(f *cube.Cover) bool {
	return f.Len() > 0 && largestCommonCube(f).NumLiterals() == 0
}

// Kernels enumerates the kernels of f (cube-free primary divisors) with
// Brayton's recursive algorithm, up to limit entries (0 = unlimited).
// The top-level cover itself is included when it is cube-free.
func Kernels(f *cube.Cover, limit int) []*cube.Cover {
	var out []*cube.Cover
	add := func(k *cube.Cover) bool {
		kk := k.Clone()
		kk.Sort()
		for _, o := range out {
			if slices.Equal(o.Cubes, kk.Cubes) {
				return true
			}
		}
		out = append(out, kk)
		return limit == 0 || len(out) < limit
	}
	var rec func(j int, g *cube.Cover) bool
	rec = func(j int, g *cube.Cover) bool {
		if isCubeFree(g) && g.Len() >= 2 {
			if !add(g) {
				return false
			}
		}
		counts := litCounts(g)
		for l := j; l < len(counts); l++ {
			if counts[l] < 2 {
				continue
			}
			if !rec(l+1, makeCubeFree(divideByLit(g, l))) {
				return false
			}
		}
		return true
	}
	rec(0, makeCubeFree(f))
	return out
}

// GoodFactor produces a factored expression for the cover, recursively
// dividing by the best-value kernel; when no kernel helps, it falls back
// to most-frequent-literal (quick) factoring, and finally to flat SOP.
func GoodFactor(f *cube.Cover) *Expr {
	switch {
	case f.Len() == 0:
		return NewConst(false)
	case f.Len() == 1:
		return FromCube(f.Cubes[0])
	}
	for _, c := range f.Cubes {
		if c.NumLiterals() == 0 {
			return NewConst(true)
		}
	}

	// Try the best kernel divisor.
	if e := bestKernelFactor(f); e != nil {
		return e
	}

	// Quick factor on the most frequent literal.
	counts := litCounts(f)
	bestLit, bestCount := -1, 1
	for l, c := range counts {
		if c > bestCount {
			bestLit, bestCount = l, c
		}
	}
	if bestLit >= 0 {
		v, val := litVal(bestLit)
		d := cube.CoverOf(f.NumVars(), cube.New(f.NumVars()).SetVal(v, val))
		q, r := Divide(f, d)
		if q.Len() > 0 {
			lit := NewLit(v, val == cube.Zero)
			return NewOr(NewAnd(lit, GoodFactor(q)), GoodFactor(r))
		}
	}
	return SOP(f)
}

// bestKernelFactor returns the factoring of f by its best kernel, or nil
// if no kernel yields a literal saving.
func bestKernelFactor(f *cube.Cover) *Expr {
	const kernelCap = 64
	kernels := Kernels(f, kernelCap)
	type scored struct {
		k     *cube.Cover
		q     *cube.Cover
		r     *cube.Cover
		value int
	}
	var best *scored
	flatCost := f.LiteralCount()
	x := newDividend(f)
	for _, k := range kernels {
		if k.Len() < 2 {
			continue
		}
		// Dividing f by itself gives the trivial factoring 1·f.
		q, r := x.divide(k)
		if q.Len() == 0 || (q.Len() == 1 && q.Cubes[0].NumLiterals() == 0) {
			continue
		}
		cost := q.LiteralCount() + k.LiteralCount() + r.LiteralCount()
		value := flatCost - cost
		if value <= 0 {
			continue
		}
		if best == nil || value > best.value {
			best = &scored{k: k, q: q, r: r, value: value}
		}
	}
	if best == nil {
		return nil
	}
	return NewOr(NewAnd(GoodFactor(best.q), GoodFactor(best.k)), GoodFactor(best.r))
}
