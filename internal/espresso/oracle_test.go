package espresso

// A materializing dense engine: it builds a full 2^n-bit minterm set
// for every candidate raise, subset test and coverage count. It is the
// reference the cube-space engine in dense.go must match cube for cube.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"relsyn/internal/bitset"
	"relsyn/internal/cube"
)

// oracleCtx carries the precomputed per-variable truth-table patterns and
// the fixed on/dc/off sets of one minimization run.
type oracleCtx struct {
	n    int
	size int
	pats []*bitset.Set // pats[v] = minterms with bit v set
	on   *bitset.Set
	dc   *bitset.Set
	off  *bitset.Set
	poll func() error // cooperative cancellation hook (nil = never)
}

func newOracleCtx(n int, on, dc *cube.Cover) *oracleCtx {
	ctx := &oracleCtx{n: n, size: 1 << uint(n)}
	ctx.pats = make([]*bitset.Set, n)
	for v := 0; v < n; v++ {
		ctx.pats[v] = bitset.VarPattern(ctx.size, v)
	}
	ctx.on = ctx.coverBits(on)
	ctx.dc = ctx.coverBits(dc)
	care := ctx.on.Union(ctx.dc)
	ctx.off = care.Complement()
	return ctx
}

// cubeBits materializes a cube's minterm set with word-level AND of the
// variable patterns: O(n·2^n/64).
func (ctx *oracleCtx) cubeBits(c cube.Cube) *bitset.Set {
	s := bitset.New(ctx.size)
	s.FillAll()
	for v := 0; v < ctx.n; v++ {
		switch c.Val(v) {
		case cube.One:
			s.InPlaceIntersect(ctx.pats[v])
		case cube.Zero:
			s.InPlaceDifference(ctx.pats[v])
		}
	}
	return s
}

func (ctx *oracleCtx) coverBits(f *cube.Cover) *bitset.Set {
	s := bitset.New(ctx.size)
	if f == nil {
		return s
	}
	for _, c := range f.Cubes {
		s.InPlaceUnion(ctx.cubeBits(c))
	}
	return s
}

// expand raises each cube to a prime implicant of on∪dc, biggest cubes
// first, dropping cubes already covered by accumulated primes. The
// variant selects a different (still deterministic) raise order, used by
// the last-gasp pass to escape the default order's local optimum.
func (ctx *oracleCtx) expand(f *cube.Cover, variant int) *cube.Cover {
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
	covered := bitset.New(ctx.size)
	for _, c := range work.Cubes {
		check(ctx.poll)
		cb := ctx.cubeBits(c)
		if cb.SubsetOf(covered) {
			continue
		}
		p := ctx.expandCube(c, variant)
		out.Add(p)
		covered.InPlaceUnion(ctx.cubeBits(p))
	}
	// The cube-space engine runs no containment cleanup: hold the
	// oracle to the property that makes one unnecessary.
	if i, j, ok := containedPair(out); ok {
		panic(fmt.Sprintf("espresso oracle: expand emitted %s inside %s", out.Cubes[i], out.Cubes[j]))
	}
	return out
}

// expandCube greedily raises literals, preferring variables whose raise
// exposes the fewest off-set minterms (zero exposures are valid raises;
// the count orders the attempts deterministically). Variant 1 breaks
// ties toward the highest variable index instead of the lowest.
func (ctx *oracleCtx) expandCube(c cube.Cube, variant int) cube.Cube {
	type cand struct{ v, exposed int }
	var cands []cand
	for v := 0; v < ctx.n; v++ {
		if c.Val(v) == cube.Full {
			continue
		}
		raised := ctx.cubeBits(c.SetVal(v, cube.Full))
		cands = append(cands, cand{v, raised.IntersectionCount(ctx.off)})
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].exposed != cands[j].exposed {
			return cands[i].exposed < cands[j].exposed
		}
		if variant == 1 {
			return cands[i].v > cands[j].v
		}
		return cands[i].v < cands[j].v
	})
	for _, cd := range cands {
		raised := c.SetVal(cd.v, cube.Full)
		if !ctx.cubeBits(raised).IntersectsWith(ctx.off) {
			c = raised
		}
	}
	return c
}

// coverageCounts returns, per minterm, how many cubes of f cover it.
func (ctx *oracleCtx) coverageCounts(f *cube.Cover) []int32 {
	counts := make([]int32, ctx.size)
	for _, c := range f.Cubes {
		ctx.cubeBits(c).ForEach(func(m int) { counts[m]++ })
	}
	return counts
}

// irredundant removes cubes whose on-set minterms are all covered at
// least twice, smallest cubes first, maintaining exact counts.
func (ctx *oracleCtx) irredundant(f *cube.Cover) *cube.Cover {
	work := f.Clone()
	work.Sort() // big first; iterate from the back (small first)
	counts := ctx.coverageCounts(work)
	for i := work.Len() - 1; i >= 0; i-- {
		check(ctx.poll)
		cb := ctx.cubeBits(work.Cubes[i])
		needed := false
		cb.ForEach(func(m int) {
			if counts[m] == 1 && ctx.on.Test(m) {
				needed = true
			}
		})
		if needed {
			continue
		}
		cb.ForEach(func(m int) { counts[m]-- })
		work.Cubes = append(work.Cubes[:i], work.Cubes[i+1:]...)
	}
	return work
}

// reduce shrinks each cube to the bounding cube of the on-set minterms
// only it covers, sequentially so later cubes see earlier reductions.
func (ctx *oracleCtx) reduce(f *cube.Cover) *cube.Cover {
	work := f.Clone()
	work.Sort()
	counts := ctx.coverageCounts(work)
	for i, c := range work.Cubes {
		check(ctx.poll)
		cb := ctx.cubeBits(c)
		unique := bitset.New(ctx.size)
		cb.ForEach(func(m int) {
			if counts[m] == 1 && ctx.on.Test(m) {
				unique.Set(m)
			}
		})
		if unique.None() {
			continue // fully redundant; leave for irredundant
		}
		reduced := oracleBoundingCube(ctx.n, unique)
		rb := ctx.cubeBits(reduced)
		// Give up coverage of the abandoned minterms.
		aband := cb.Difference(rb)
		aband.ForEach(func(m int) { counts[m]-- })
		work.Cubes[i] = reduced
	}
	return work
}

// boundingCube returns the smallest cube containing every minterm of s.
// s must be non-empty.
func oracleBoundingCube(n int, s *bitset.Set) cube.Cube {
	c := cube.New(n)
	first := s.NextSet(0)
	for v := 0; v < n; v++ {
		bit := first>>uint(v)&1 == 1
		uniform := true
		s.ForEach(func(m int) {
			if (m>>uint(v)&1 == 1) != bit {
				uniform = false
			}
		})
		if uniform {
			if bit {
				c = c.SetVal(v, cube.One)
			} else {
				c = c.SetVal(v, cube.Zero)
			}
		}
	}
	return c
}

// minimizeOracle is the materializing dense engine: every cube test
// builds the cube's full 2^n-bit minterm set.
// poll (nil = never) is checked at cube granularity inside every pass.
func minimizeOracle(on, dc *cube.Cover, poll func() error) *cube.Cover {
	n := on.NumVars()
	ctx := newOracleCtx(n, on, dc)
	ctx.poll = poll
	if ctx.on.None() {
		return cube.NewCover(n)
	}
	if ctx.off.None() {
		return cube.CoverOf(n, cube.New(n)) // tautology: single universe cube
	}
	f := ctx.expand(on, 0)
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

// sameCover reports whether two covers are identical cube for cube.
func sameCover(a, b *cube.Cover) bool {
	if a.NumVars() != b.NumVars() || a.Len() != b.Len() {
		return false
	}
	for i, c := range a.Cubes {
		if c != b.Cubes[i] {
			return false
		}
	}
	return true
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

// randomSets draws on and dc minterm sets over n inputs at a random
// density for each phase.
func randomSets(rng *rand.Rand, n int) (on, dc *bitset.Set) {
	size := 1 << uint(n)
	on, dc = bitset.New(size), bitset.New(size)
	pOn, pDC := rng.Float64(), rng.Float64()
	for m := 0; m < size; m++ {
		switch r := rng.Float64(); {
		case r < pOn*(1-pDC):
			on.Set(m)
		case r < pOn*(1-pDC)+pDC*0.8:
			dc.Set(m)
		}
	}
	return on, dc
}

// The cube-space engine answers exactly as the materializing one, from
// sets and from minterm covers alike.
func TestMinimizeSetsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1616))
	for trial := 0; trial < 500; trial++ {
		// The oracle costs O(2^n) per cube test: keep the widest
		// functions to one trial in 25.
		n := 1 + rng.Intn(9)
		if trial%25 == 0 {
			n = 10 + rng.Intn(3)
		}
		on, dc := randomSets(rng, n)
		onCov, dcCov := mintermCover(n, on), mintermCover(n, dc)
		want := minimizeOracle(onCov, dcCov, nil)
		got, err := MinimizeSets(n, on, dc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameCover(got, want) {
			t.Fatalf("trial %d n=%d: MinimizeSets\n%s\nwant\n%s", trial, n, got, want)
		}
		viaCovers, err := MinimizeInterruptible(onCov, dcCov, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameCover(viaCovers, got) {
			t.Fatalf("trial %d n=%d: MinimizeInterruptible\n%s\nMinimizeSets\n%s", trial, n, viaCovers, got)
		}
	}
}

// Seeded from arbitrary (overlapping, non-minterm) covers, the engine
// still takes the materializing one's every step.
func TestMinimizeCoversMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1617))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		on := randomCover(rng, n, 1+rng.Intn(3*n))
		dc := randomCover(rng, n, rng.Intn(2*n))
		want := minimizeOracle(on, dc, nil)
		got, err := MinimizeInterruptible(on, dc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameCover(got, want) {
			t.Fatalf("trial %d n=%d: got\n%s\nwant\n%s", trial, n, got, want)
		}
	}
}

// countOf reads minterm m's count from the bit-sliced counters.
func countOf(k *counters, m int) int32 {
	var c int32
	for p := 0; p < k.planes; p++ {
		c |= int32(k.w[(m>>6)*k.planes+p]>>uint(m&63)&1) << uint(p)
	}
	return c
}

// The bit-sliced counters hold exactly the per-minterm int32 counts,
// and the exactly-once mask, through seeded random sequences of cube
// additions and removals. One counters value serves every trial, so
// each reset reuses a buffer sized for another plane count.
func TestCountersMatchInt32(t *testing.T) {
	rng := rand.New(rand.NewSource(2901))
	var k counters
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(12)
		pool := randomCover(rng, n, 1+rng.Intn(40)).Cubes
		if trial%3 == 0 {
			// Repeats of a few cubes drive counts to the top plane.
			for i := range pool {
				pool[i] = pool[rng.Intn(1+i%3)]
			}
		}
		words := (1<<uint(n) + 63) / 64
		k.reset(words, len(pool))
		want := make([]int32, 1<<uint(n))
		in := make([]bool, len(pool))
		apply := func(c cube.Cube, d int32) {
			for i, mask := range cube.Words(c.Span()) {
				if d > 0 {
					k.add(i, mask)
				} else {
					k.sub(i, mask)
				}
			}
			c.Minterms(func(m uint) { want[m] += d })
		}
		for op := 0; op < 4*len(pool); op++ {
			ci := rng.Intn(len(pool))
			if in[ci] {
				apply(pool[ci], -1)
			} else {
				apply(pool[ci], 1)
			}
			in[ci] = !in[ci]
			for m, w := range want {
				if got := countOf(&k, m); got != w {
					t.Fatalf("trial %d n=%d op %d: minterm %d count %d, want %d", trial, n, op, m, got, w)
				}
			}
			for i := 0; i < words; i++ {
				var once uint64
				for b := 0; b < 64 && i<<6|b < len(want); b++ {
					if want[i<<6|b] == 1 {
						once |= 1 << uint(b)
					}
				}
				if got := k.once(i); got != once {
					t.Fatalf("trial %d n=%d op %d: word %d once %#x, want %#x", trial, n, op, i, got, once)
				}
			}
		}
	}
}

// Above n = 12 the suite never runs the on-set walk's bit-reversed
// order over more than 64 words: MinimizeSets must still answer exactly
// as the minterm-cover seed does, on sparse and dense functions.
func TestMinimizeSetsMatchesMintermSeedWide(t *testing.T) {
	rng := rand.New(rand.NewSource(2902))
	for n := 13; n <= 16; n++ {
		for _, density := range []struct{ on, dc float64 }{{0.01, 0.05}, {0.02, 0.6}, {0.5, 0.1}, {0.3, 0.6}} {
			size := 1 << uint(n)
			on, dc := bitset.New(size), bitset.New(size)
			for m := 0; m < size; m++ {
				switch r := rng.Float64(); {
				case r < density.on:
					on.Set(m)
				case r < density.on+density.dc:
					dc.Set(m)
				}
			}
			got, err := MinimizeSets(n, on, dc, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := MinimizeInterruptible(mintermCover(n, on), mintermCover(n, dc), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !sameCover(got, want) {
				t.Fatalf("n=%d on %.2f dc %.2f: MinimizeSets gave %d cubes, minterm seed %d",
					n, density.on, density.dc, got.Len(), want.Len())
			}
		}
	}
}

// FuzzMinimizeSetsOracle decodes an incompletely specified function
// from the fuzz bytes (a variable count, then two bits per minterm,
// 1 on and 2 don't-care, the bytes repeating when they run out) and
// requires MinimizeSets to return the materializing oracle's cover.
func FuzzMinimizeSetsOracle(f *testing.F) {
	f.Add([]byte{3, 0x19, 0x64})
	f.Add([]byte{7, 0x95, 0x21, 0x4a, 0x06, 0x59})
	f.Add([]byte{9, 0x55, 0x11, 0xa5, 0x49, 0x12, 0x81, 0x66, 0x05, 0x94})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%10
		data = data[1:]
		size := 1 << uint(n)
		on, dc := bitset.New(size), bitset.New(size)
		for m := 0; m < size; m++ {
			switch data[m/4%len(data)] >> uint(2*(m%4)) & 3 {
			case 1:
				on.Set(m)
			case 2:
				dc.Set(m)
			}
		}
		got, err := MinimizeSets(n, on, dc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := minimizeOracle(mintermCover(n, on), mintermCover(n, dc), nil); !sameCover(got, want) {
			t.Fatalf("n=%d: MinimizeSets\n%s\nwant\n%s", n, got, want)
		}
	})
}
