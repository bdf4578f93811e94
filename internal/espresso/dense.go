package espresso

import (
	"math/bits"
	"slices"

	"relsyn/internal/bitset"
	"relsyn/internal/cube"
)

// denseCtx holds the fixed on/off sets of one minimization run over
// n ≤ tt.MaxInputs inputs. The engine works in cube space: a cube is
// never materialized as a 2^n-bit set. Every test and count walks only
// the words the cube touches (cube.Span) — one in-word minterm mask for
// variables 0..5, the word indices enumerated over the cube's free
// variables above them — and handles 64 minterms per word operation.
type denseCtx struct {
	n       int
	on      []uint64 // words of the on-set
	off     []uint64 // words of the off-set (complement of on ∪ dc)
	covered []uint64 // expand's running union of primes
	counts  counters // per-minterm coverage counts
	poll    func() error
}

func newDenseCtx(n int, on, off *bitset.Set, poll func() error) *denseCtx {
	return &denseCtx{
		n:       n,
		on:      on.Words(),
		off:     off.Words(),
		covered: make([]uint64, len(off.Words())),
		poll:    poll,
	}
}

// counters holds a count per minterm of a 2^n-minterm space, bit-sliced:
// word i's counts are the planes w[i*planes : (i+1)*planes], plane p
// holding bit p of the count of each of the word's 64 minterms. Adding
// or removing a cube is a ripple-carry add or subtract of its in-word
// mask on each word it touches.
type counters struct {
	planes int
	w      []uint64
}

// reset zeroes the counts of the first words words, with planes enough
// for counts up to top.
func (k *counters) reset(words, top int) {
	k.planes = bits.Len(uint(top))
	k.w = slices.Grow(k.w[:0], words*k.planes)[:words*k.planes]
	clear(k.w)
}

// add adds 1 to the count of every minterm of mask in word i.
func (k *counters) add(i int, mask uint64) {
	for p := i * k.planes; mask != 0; p++ {
		carry := k.w[p] & mask
		k.w[p] ^= mask
		mask = carry
	}
}

// sub subtracts 1 from the count of every minterm of mask in word i;
// each of those counts must be positive.
func (k *counters) sub(i int, mask uint64) {
	for p := i * k.planes; mask != 0; p++ {
		borrow := mask &^ k.w[p]
		k.w[p] ^= mask
		mask = borrow
	}
}

// once returns the minterms of word i whose count is exactly 1.
func (k *counters) once(i int) uint64 {
	if k.planes == 0 {
		return 0
	}
	pl := k.w[i*k.planes : (i+1)*k.planes]
	var more uint64
	for _, x := range pl[1:] {
		more |= x
	}
	return pl[0] &^ more
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
		ctx.emit(out, ctx.expandCube(c, variant))
	}
	return out
}

// expandOnSet is expand(f, 0) for f the on-set's minterm cubes, without
// building f: Cover.Sort puts fully bound cubes in ascending
// bit-reversed minterm order (variable 0 decides first, Zero before
// One), so the minterms are visited in that order straight off the
// on-set words.
func (ctx *denseCtx) expandOnSet() *cube.Cover {
	out := cube.NewCover(ctx.n)
	clear(ctx.covered)
	// Minterm m is visited at r = reverse_n(m): r's top min(n,6) bits,
	// reversed, are m's bit within its word and r's other bits, reversed,
	// its word index, so counting r up varies the word fastest.
	low := min(ctx.n, 6)
	high := ctx.n - low
	for t := uint32(0); t < 1<<low; t++ {
		b := bits.Reverse32(t) >> (32 - low)
		for s := uint32(0); s < 1<<high; s++ {
			i := bits.Reverse32(s) >> (32 - high) // 0 when high = 0
			if (ctx.on[i]&^ctx.covered[i])>>b&1 == 0 {
				continue
			}
			check(ctx.poll)
			ctx.emit(out, ctx.expandCube(cube.FromMinterm(ctx.n, uint(i<<6|b)), 0))
		}
	}
	return out
}

// emit appends prime p to out and marks its minterms covered.
func (ctx *denseCtx) emit(out *cube.Cover, p cube.Cube) {
	out.Add(p)
	for i, mask := range cube.Words(p.Span()) {
		ctx.covered[i] |= mask
	}
}

// expandCube greedily raises literals, trying the variables in
// tie-break order: ascending index, or descending under variant 1.
//
// c covers no off-set minterm (it lies in a prime or in the on-set), so
// the raise of a bound variable v covers an off-set minterm exactly when
// flip(c, v), the cube with v's literal complemented, does. One walk
// over c's words marks those variables blocked. A blocked variable can
// never be raised: every cube the raises reach contains c, so its own
// flipped half contains flip(c, v). The unblocked variables are tried in
// tie-break order, each raise tested on its flipped half alone. This
// gives the primes of Brayton et al.'s order, fewest exposed off-set
// minterms first, since every variable that order raises has zero
// exposures and the zero-exposure variables come first in tie-break
// order. Flipping v < 6 shifts the in-word mask by 2^v; flipping v ≥ 6
// moves to the word index with bit v-6 toggled.
func (ctx *denseCtx) expandCube(c cube.Cube, variant int) cube.Cube {
	mask, base, free := c.Span()
	ones, zeros := c.Masks()
	bound := ones | zeros
	// flip[v] is the in-word mask of flip(c, v) for a bound v < 6.
	var flip [6]uint64
	for b := bound & 63; b != 0; b &= b - 1 {
		v := bits.TrailingZeros32(b)
		flip[v] = flipLow(mask, v, ones)
	}
	var blocked uint32
	for i, m := range cube.Words(mask, base, free) {
		o := ctx.off[i]
		for b := bound &^ blocked & 63; b != 0; b &= b - 1 {
			v := bits.TrailingZeros32(b)
			if o&flip[v] != 0 {
				blocked |= 1 << uint(v)
			}
		}
		for b := (bound &^ blocked) >> 6; b != 0; b &= b - 1 {
			j := bits.TrailingZeros32(b)
			if ctx.off[i^1<<j]&m != 0 {
				blocked |= 1 << uint(6+j)
			}
		}
	}
	for b := bound &^ blocked; b != 0; {
		var v int
		if variant == 1 {
			v = bits.Len32(b) - 1
		} else {
			v = bits.TrailingZeros32(b)
		}
		b &^= 1 << uint(v)
		if v < 6 {
			fm := flipLow(mask, v, ones)
			if !ctx.anyOff(fm, base, free, 0) {
				mask |= fm
				c = c.SetVal(v, cube.Full)
			}
			continue
		}
		bit := uint32(1) << uint(v-6)
		if !ctx.anyOff(mask, base, free, bit) {
			base &^= bit
			free |= bit
			c = c.SetVal(v, cube.Full)
		}
	}
	return c
}

// flipLow returns the in-word mask of a cube with in-word mask mask
// after complementing its literal on v < 6 (One iff bit v of ones).
func flipLow(mask uint64, v int, ones uint32) uint64 {
	if ones>>uint(v)&1 == 1 {
		return mask >> (1 << uint(v))
	}
	return mask << (1 << uint(v))
}

// anyOff reports whether the span (mask, base, free), its word indices
// XORed with toggle, touches an off-set minterm.
func (ctx *denseCtx) anyOff(mask uint64, base, free, toggle uint32) bool {
	for i, m := range cube.Words(mask, base, free) {
		if ctx.off[i^int(toggle)]&m != 0 {
			return true
		}
	}
	return false
}

// countCoverage sets ctx.counts to how many cubes of f cover each
// minterm.
func (ctx *denseCtx) countCoverage(f *cube.Cover) {
	ctx.counts.reset(len(ctx.on), f.Len())
	for _, c := range f.Cubes {
		for i, mask := range cube.Words(c.Span()) {
			ctx.counts.add(i, mask)
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
		for w, mask := range cube.Words(c.Span()) {
			ctx.counts.sub(w, mask)
		}
		work.Cubes = append(work.Cubes[:i], work.Cubes[i+1:]...)
	}
	return work
}

// coversUniquely reports whether c covers an on-set minterm no other
// cube covers.
func (ctx *denseCtx) coversUniquely(c cube.Cube) bool {
	for i, mask := range cube.Words(c.Span()) {
		if mask&ctx.on[i]&ctx.counts.once(i) != 0 {
			return true
		}
	}
	return false
}

// varPats[v] holds the minterms of a 64-minterm word with variable v set.
var varPats = [6]uint64{
	0xaaaaaaaaaaaaaaaa,
	0xcccccccccccccccc,
	0xf0f0f0f0f0f0f0f0,
	0xff00ff00ff00ff00,
	0xffff0000ffff0000,
	0xffffffff00000000,
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
		// (or), and leaves it Full otherwise. A word's minterms share
		// their high variables, its index; the low six come from the
		// in-word patterns.
		and, or, unique := ^0, 0, false
		for i, mask := range cube.Words(c.Span()) {
			u := mask & ctx.on[i] & ctx.counts.once(i)
			if u == 0 {
				continue
			}
			wordAnd, wordOr := i<<6, i<<6
			for v, pat := range varPats {
				if u&^pat == 0 {
					wordAnd |= 1 << uint(v)
				}
				if u&pat != 0 {
					wordOr |= 1 << uint(v)
				}
			}
			and &= wordAnd
			or |= wordOr
			unique = true
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
			ctx.counts.sub(i, mask)
		}
		work.Cubes[ci] = reduced
	}
	return work
}

// minimizeDense is the dense engine for n ≤ tt.MaxInputs: ESPRESSO's
// improvement loop from the seed cover, against the fixed on/dc/off
// minterm sets (dc may be nil). A nil seed stands for the on-set's
// minterm cubes. poll is checked at cube granularity inside every pass.
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
	var f *cube.Cover
	if seed == nil {
		f = ctx.expandOnSet()
	} else {
		f = ctx.expand(seed, 0)
	}
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

// coverSet returns the minterms of cover f as a set over n inputs.
func coverSet(n int, f *cube.Cover) *bitset.Set {
	s := bitset.New(1 << uint(n))
	for _, c := range f.Cubes {
		c.Minterms(func(m uint) { s.Set(int(m)) })
	}
	return s
}
