package espresso

import (
	"math/bits"
	"slices"

	"relsyn/internal/bitset"
	"relsyn/internal/cube"
)

// denseCtx holds the fixed on/off sets of one minimization run over
// n ≤ tt.MaxInputs inputs (2^16 minterms × an int32 counter per minterm
// keeps the working set in cache). The engine works in cube space: a
// cube is never materialized as a 2^n-bit set. Every test and count
// walks only the words the cube touches (cube.Span) — one in-word
// minterm mask for variables 0..5, the word indices enumerated over the
// cube's free variables above them.
type denseCtx struct {
	n       int
	on      []uint64 // words of the on-set
	off     []uint64 // words of the off-set (complement of on ∪ dc)
	covered []uint64 // expand's running union of primes
	counts  []int32  // per-minterm coverage counts
	poll    func() error
}

func newDenseCtx(n int, on, off *bitset.Set, poll func() error) *denseCtx {
	return &denseCtx{
		n:       n,
		on:      on.Words(),
		off:     off.Words(),
		covered: make([]uint64, len(off.Words())),
		counts:  make([]int32, 1<<uint(n)),
		poll:    poll,
	}
}

// offCount returns how many off-set minterms c covers.
func (ctx *denseCtx) offCount(c cube.Cube) int {
	total := 0
	for i, mask := range cube.Words(c.Span()) {
		total += bits.OnesCount64(ctx.off[i] & mask)
	}
	return total
}

// hitsOff reports whether c covers an off-set minterm.
func (ctx *denseCtx) hitsOff(c cube.Cube) bool {
	for i, mask := range cube.Words(c.Span()) {
		if ctx.off[i]&mask != 0 {
			return true
		}
	}
	return false
}

// isCovered reports whether every minterm of c is in ctx.covered.
func (ctx *denseCtx) isCovered(c cube.Cube) bool {
	for i, mask := range cube.Words(c.Span()) {
		if mask&^ctx.covered[i] != 0 {
			return false
		}
	}
	return true
}

// expand raises each cube to a prime implicant of on∪dc, biggest cubes
// first, dropping cubes already covered by accumulated primes. The
// variant selects a different (still deterministic) raise order, used by
// the last-gasp pass to escape the default order's local optimum.
//
// No output cube contains another, so no containment cleanup follows.
// expandCube tries every variable once, and a raise that hits the
// off-set on a cube hits it on every larger cube too, so each output is
// a prime of on∪dc; a prime inside another prime equals it, and a cube
// equal to an earlier prime is skipped as covered.
func (ctx *denseCtx) expand(f *cube.Cover, variant int) *cube.Cover {
	work := f.Clone()
	work.Sort()
	if variant == 2 {
		// Smallest cubes first: they are the most constrained and claim
		// their primes before the big cubes lock in the covering.
		for i, j := 0, len(work.Cubes)-1; i < j; i, j = i+1, j-1 {
			work.Cubes[i], work.Cubes[j] = work.Cubes[j], work.Cubes[i]
		}
	}
	out := cube.NewCover(ctx.n)
	clear(ctx.covered)
	for _, c := range work.Cubes {
		check(ctx.poll)
		if ctx.isCovered(c) {
			continue
		}
		p := ctx.expandCube(c, variant)
		out.Add(p)
		for i, mask := range cube.Words(p.Span()) {
			ctx.covered[i] |= mask
		}
	}
	return out
}

// expandCube greedily raises literals, preferring variables whose raise
// exposes the fewest off-set minterms (zero exposures are valid raises;
// the count orders the attempts deterministically). Variant 1 breaks
// ties toward the highest variable index instead of the lowest. Each
// attempt is one integer key, the exposure count above the tie-break
// index, so the order is a plain integer sort.
func (ctx *denseCtx) expandCube(c cube.Cube, variant int) cube.Cube {
	const tieBits = 5 // a variable index < cube.MaxVars
	var buf [cube.MaxVars]uint32
	keys := buf[:0]
	for v := 0; v < ctx.n; v++ {
		if c.Val(v) == cube.Full {
			continue
		}
		keys = append(keys, uint32(ctx.offCount(c.SetVal(v, cube.Full)))<<tieBits|tieKey(v, variant))
	}
	slices.Sort(keys)
	for _, k := range keys {
		v := int(tieKey(int(k&(1<<tieBits-1)), variant))
		if raised := c.SetVal(v, cube.Full); !ctx.hitsOff(raised) {
			c = raised
		}
	}
	return c
}

// tieKey orders variable v among equal exposure counts: ascending, or
// descending under variant 1. It is its own inverse.
func tieKey(v, variant int) uint32 {
	if variant == 1 {
		return uint32(cube.MaxVars - 1 - v)
	}
	return uint32(v)
}

// countCoverage sets ctx.counts[m] to how many cubes of f cover m.
func (ctx *denseCtx) countCoverage(f *cube.Cover) {
	clear(ctx.counts)
	for _, c := range f.Cubes {
		ctx.addCounts(c, 1)
	}
}

// addCounts adds d to the count of every minterm of c.
func (ctx *denseCtx) addCounts(c cube.Cube, d int32) {
	for i, mask := range cube.Words(c.Span()) {
		for b := mask; b != 0; b &= b - 1 {
			ctx.counts[i<<6|bits.TrailingZeros64(b)] += d
		}
	}
}

// irredundant removes cubes whose on-set minterms are all covered at
// least twice, smallest cubes first, maintaining exact counts.
func (ctx *denseCtx) irredundant(f *cube.Cover) *cube.Cover {
	work := f.Clone()
	work.Sort() // big first; iterate from the back (small first)
	ctx.countCoverage(work)
	for i := work.Len() - 1; i >= 0; i-- {
		check(ctx.poll)
		c := work.Cubes[i]
		if ctx.coversUniquely(c) {
			continue
		}
		ctx.addCounts(c, -1)
		work.Cubes = append(work.Cubes[:i], work.Cubes[i+1:]...)
	}
	return work
}

// coversUniquely reports whether c covers an on-set minterm no other
// cube covers.
func (ctx *denseCtx) coversUniquely(c cube.Cube) bool {
	for i, mask := range cube.Words(c.Span()) {
		for b := mask & ctx.on[i]; b != 0; b &= b - 1 {
			if ctx.counts[i<<6|bits.TrailingZeros64(b)] == 1 {
				return true
			}
		}
	}
	return false
}

// reduce shrinks each cube to the bounding cube of the on-set minterms
// only it covers, sequentially so later cubes see earlier reductions.
func (ctx *denseCtx) reduce(f *cube.Cover) *cube.Cover {
	work := f.Clone()
	work.Sort()
	ctx.countCoverage(work)
	for ci, c := range work.Cubes {
		check(ctx.poll)
		// The bounding cube of the unique minterms binds variable v to
		// One where every one has v set (and), to Zero where none has
		// (or), and leaves it Full otherwise.
		and, or, unique := ^0, 0, false
		for i, mask := range cube.Words(c.Span()) {
			for b := mask & ctx.on[i]; b != 0; b &= b - 1 {
				if m := i<<6 | bits.TrailingZeros64(b); ctx.counts[m] == 1 {
					and &= m
					or |= m
					unique = true
				}
			}
		}
		if !unique {
			continue // fully redundant; leave for irredundant
		}
		reduced := cube.New(ctx.n)
		for v := 0; v < ctx.n; v++ {
			switch {
			case and>>uint(v)&1 == 1:
				reduced = reduced.SetVal(v, cube.One)
			case or>>uint(v)&1 == 0:
				reduced = reduced.SetVal(v, cube.Zero)
			}
		}
		// Give up coverage of the abandoned minterms: c's, less reduced's.
		rmask, rbase, rfree := reduced.Span()
		for i, mask := range cube.Words(c.Span()) {
			if uint32(i)&^rfree == rbase {
				mask &^= rmask
			}
			for b := mask; b != 0; b &= b - 1 {
				ctx.counts[i<<6|bits.TrailingZeros64(b)]--
			}
		}
		work.Cubes[ci] = reduced
	}
	return work
}

// minimizeDense is the dense engine for n ≤ tt.MaxInputs: ESPRESSO's
// improvement loop from the seed cover, against the fixed on/dc/off
// minterm sets (dc may be nil). poll is checked at cube granularity
// inside every pass.
func minimizeDense(n int, on, dc *bitset.Set, seed *cube.Cover, poll func() error) *cube.Cover {
	off := on.Clone()
	if dc != nil {
		off.InPlaceUnion(dc)
	}
	off = off.Complement()
	if on.None() {
		return cube.NewCover(n)
	}
	if off.None() {
		return cube.CoverOf(n, cube.New(n)) // tautology: single universe cube
	}
	ctx := newDenseCtx(n, on, off, poll)
	f := ctx.expand(seed, 0)
	f = ctx.irredundant(f)
	best := f
	bestCost := CostOf(f)
	for iter := 0; iter < 8; iter++ {
		g := ctx.reduce(best)
		g = ctx.expand(g, 0)
		g = ctx.irredundant(g)
		cost := CostOf(g)
		if !cost.Less(bestCost) {
			break
		}
		best, bestCost = g, cost
	}
	// Last gasp: re-run the improvement loop from alternative expansion
	// orders; keep whichever cover is cheapest.
	for variant := 1; variant <= 2; variant++ {
		g := ctx.reduce(best)
		g = ctx.expand(g, variant)
		g = ctx.irredundant(g)
		for iter := 0; iter < 4; iter++ {
			h := ctx.reduce(g)
			h = ctx.expand(h, variant)
			h = ctx.irredundant(h)
			if !CostOf(h).Less(CostOf(g)) {
				break
			}
			g = h
		}
		if cost := CostOf(g); cost.Less(bestCost) {
			best, bestCost = g, cost
		}
	}
	best.Sort()
	return best
}

// mintermCover returns s as a cover of minterm cubes, ascending.
func mintermCover(n int, s *bitset.Set) *cube.Cover {
	cv := cube.NewCover(n)
	if s != nil {
		cv.Cubes = make([]cube.Cube, 0, s.Count())
		s.ForEach(func(m int) { cv.Add(cube.FromMinterm(n, uint(m))) })
	}
	return cv
}

// coverSet returns the minterms of cover f as a set over n inputs.
func coverSet(n int, f *cube.Cover) *bitset.Set {
	s := bitset.New(1 << uint(n))
	for _, c := range f.Cubes {
		c.Minterms(func(m uint) { s.Set(int(m)) })
	}
	return s
}
