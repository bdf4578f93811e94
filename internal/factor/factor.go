package factor

import (
	"math/bits"
	"slices"

	"relsyn/internal/cube"
)

// kernelCap bounds how many kernels one factoring level scores.
const kernelCap = 64

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

// countLits sets counts[l] to how many of cubes contain literal l.
func countLits(counts []int, cubes []cube.Cube) {
	clear(counts)
	for _, c := range cubes {
		ones, zeros := c.Masks()
		for ; ones != 0; ones &= ones - 1 {
			counts[litOf(bits.TrailingZeros32(ones), true)]++
		}
		for ; zeros != 0; zeros &= zeros - 1 {
			counts[litOf(bits.TrailingZeros32(zeros), false)]++
		}
	}
}

// litCounts tallies how many cubes of f contain each literal.
func litCounts(f *cube.Cover) []int {
	counts := make([]int, 2*f.NumVars())
	countLits(counts, f.Cubes)
	return counts
}

// literalCount returns the total literal count of cubes.
func literalCount(cubes []cube.Cube) int {
	n := 0
	for _, c := range cubes {
		n += c.NumLiterals()
	}
	return n
}

// Divide performs algebraic (weak) division f / d, returning quotient and
// remainder covers such that f = q·d + r as cube sets, with q maximal.
// The quotient's cubes are in cube.Compare order.
func Divide(f, d *cube.Cover) (q, r *cube.Cover) {
	return newDividend(f).divide(d.Cubes)
}

// dividend is a cover prepared for repeated division: its cube words
// sorted, for membership tests by binary search.
type dividend struct {
	f       *cube.Cover
	keys    []uint64
	repeats bool // some cube of f occurs more than once
}

func newDividend(f *cube.Cover) dividend {
	keys := make([]uint64, len(f.Cubes))
	for i, c := range f.Cubes {
		keys[i] = c.Word()
	}
	slices.Sort(keys)
	repeats := false
	for i := 1; i < len(keys) && !repeats; i++ {
		repeats = keys[i] == keys[i-1]
	}
	return dividend{f: f, keys: keys, repeats: repeats}
}

func (x dividend) has(w uint64) bool {
	_, ok := slices.BinarySearch(x.keys, w)
	return ok
}

// base returns the divisor cube with the most literals: the one with
// the fewest multiples in f, from which f / d is found.
func base(d []cube.Cube) int {
	b := 0
	for i, c := range d {
		if c.NumLiterals() > d[b].NumLiterals() {
			b = i
		}
	}
	return b
}

// inQuotient reports whether k, a cube of f divided by d[b], is in the
// quotient f / d: k binds no variable of any other divisor cube dc, and
// k·dc is a cube of f.
func (x dividend) inQuotient(k cube.Cube, d []cube.Cube, b int) bool {
	for i, dc := range d {
		if i != b && (k.Quotient(dc) != k || !x.has(k.Word()&dc.Word())) {
			return false
		}
	}
	return true
}

func (x dividend) divide(d []cube.Cube) (q, r *cube.Cover) {
	f, n := x.f, x.f.NumVars()
	if len(d) == 0 {
		return cube.NewCover(n), f.Clone()
	}
	// Quotient: the intersection over divisor cubes dc of
	// {c/dc : c ∈ f, dc ⊆ c}, found from one divisor cube's set.
	q = cube.NewCover(n)
	b := base(d)
	for _, c := range f.Cubes {
		if c.DivisibleBy(d[b]) {
			if k := c.Quotient(d[b]); x.inQuotient(k, d, b) {
				q.Cubes = append(q.Cubes, k)
			}
		}
	}
	// The quotient's order is part of the factored answer.
	slices.SortFunc(q.Cubes, cube.Compare)
	q.Cubes = slices.Compact(q.Cubes)
	// Remainder: cubes of f not produced by q·d.
	produced := make([]uint64, 0, q.Len()*len(d))
	for _, qc := range q.Cubes {
		for _, dc := range d {
			produced = append(produced, qc.Word()&dc.Word())
		}
	}
	slices.Sort(produced)
	r = cube.NewCover(n)
	r.Cubes = make([]cube.Cube, 0, f.Len())
	for _, c := range f.Cubes {
		if _, ok := slices.BinarySearch(produced, c.Word()); !ok {
			r.Cubes = append(r.Cubes, c)
		}
	}
	return q, r
}

// value returns the literals saved by writing f as q·k + r instead of
// flat, where q = f / k; a value ≤ 0 means k does not help. Without
// repeated cubes f is the disjoint union of r and the |q|·|k| products,
// so lits(f) = lits(r) + |k|·lits(q) + |q|·lits(k) and the saving
// needs only q. A cover with repeats is scored by dividing in full.
func (x dividend) value(k []cube.Cube, kLits int) int {
	if x.repeats {
		q, r := x.divide(k)
		if q.Len() == 1 && q.Cubes[0].NumLiterals() == 0 {
			return 0 // k is f itself: the trivial factoring 1·f
		}
		return x.f.LiteralCount() - (q.LiteralCount() + kLits + r.LiteralCount())
	}
	nq, qLits := 0, 0
	b := base(k)
	for _, c := range x.f.Cubes {
		if c.DivisibleBy(k[b]) {
			if qc := c.Quotient(k[b]); x.inQuotient(qc, k, b) {
				nq++
				qLits += qc.NumLiterals()
			}
		}
	}
	// An empty q is negative, and q = {1} (k is f itself) is 0.
	return (len(k)-1)*qLits + (nq-1)*kLits
}

// kernelEnum enumerates kernels (cube-free primary divisors) with
// Brayton's recursion and Brayton–McMullen co-kernel pruning. It keeps
// one cube buffer and one literal-count slice per recursion depth, and
// dedupes kernels by an order-independent hash of their cube words.
// The zero value is ready; later runs reuse its buffers.
type kernelEnum struct {
	n, limit int
	yield    func(k []cube.Cube) bool
	bufs     [][]cube.Cube // bufs[d]: the cube-free cover at depth d
	counts   [][]int       // counts[d]: literal counts of bufs[d]
	seen     map[uint64]int32
	next     []int32  // next[i]: earlier kernel with kernel i's hash, or -1
	starts   []int    // kernel i's words are keys[starts[i]:starts[i+1]]
	keys     []uint64 // every kernel's cube words, each kernel sorted
	scratch  []uint64
}

// run calls yield for each distinct kernel of f in discovery order, up
// to limit kernels (0 = unlimited), the top-level cover included when
// it is cube-free; a false return from yield ends the enumeration. The
// slice yield gets is only valid during the call.
func (e *kernelEnum) run(f *cube.Cover, limit int, yield func(k []cube.Cube) bool) {
	e.n, e.limit, e.yield = f.NumVars(), limit, yield
	if e.seen == nil {
		e.seen = make(map[uint64]int32)
	}
	clear(e.seen)
	e.next, e.starts, e.keys = e.next[:0], e.starts[:0], e.keys[:0]
	g := append(e.buf(0, len(f.Cubes)), f.Cubes...)
	ones, zeros := commonMasks(g)
	e.rec(0, 0, divideOut(g, ones, zeros))
}

// buf returns depth d's cube buffer, emptied, with room for size cubes
// (so appending up to size cubes keeps the buffer).
func (e *kernelEnum) buf(d, size int) []cube.Cube {
	for len(e.bufs) <= d {
		e.bufs = append(e.bufs, nil)
		e.counts = append(e.counts, nil)
	}
	if cap(e.bufs[d]) < size {
		e.bufs[d] = make([]cube.Cube, 0, size)
	}
	return e.bufs[d][:0]
}

func (e *kernelEnum) rec(d, j int, g []cube.Cube) bool {
	if len(g) >= 2 && !e.emit(g) {
		return false
	}
	if cap(e.counts[d]) < 2*e.n {
		e.counts[d] = make([]int, 2*e.n)
	}
	counts := e.counts[d][:2*e.n]
	countLits(counts, g)
	for l := j; l < len(counts); l++ {
		if counts[l] < 2 {
			continue
		}
		if q, ok := e.quotient(d+1, g, l); ok && !e.rec(d+1, l+1, q) {
			return false
		}
	}
	return true
}

// quotient writes g / l, made cube-free, into depth d's buffer. It
// reports false, pruning the co-kernel, when the common cube of g / l
// binds a variable below l's: every kernel under it was then reached
// from that smaller literal first.
func (e *kernelEnum) quotient(d int, g []cube.Cube, l int) ([]cube.Cube, bool) {
	v, val := litVal(l)
	lit := cube.New(e.n).SetVal(v, val)
	q := e.buf(d, len(g))
	ones, zeros := ^uint32(0), ^uint32(0)
	for _, c := range g {
		if c.DivisibleBy(lit) {
			c = c.Quotient(lit)
			o, z := c.Masks()
			ones, zeros = ones&o, zeros&z
			q = append(q, c)
		}
	}
	if (ones|zeros)&(1<<uint(v)-1) != 0 {
		return nil, false
	}
	return divideOut(q, ones, zeros), true
}

// commonMasks returns the literals every one of cubes binds, as Masks
// does for one cube.
func commonMasks(cubes []cube.Cube) (ones, zeros uint32) {
	if len(cubes) == 0 {
		return 0, 0
	}
	ones, zeros = ^uint32(0), ^uint32(0)
	for _, c := range cubes {
		o, z := c.Masks()
		ones, zeros = ones&o, zeros&z
	}
	return ones, zeros
}

// divideOut divides the cube binding ones to One and zeros to Zero out
// of every cube, in place.
func divideOut(cubes []cube.Cube, ones, zeros uint32) []cube.Cube {
	if ones|zeros == 0 {
		return cubes
	}
	common := cube.New(cubes[0].NumVars())
	for ; ones != 0; ones &= ones - 1 {
		common = common.SetVal(bits.TrailingZeros32(ones), cube.One)
	}
	for ; zeros != 0; zeros &= zeros - 1 {
		common = common.SetVal(bits.TrailingZeros32(zeros), cube.Zero)
	}
	for i, c := range cubes {
		cubes[i] = c.Quotient(common)
	}
	return cubes
}

// emit yields k unless an equal kernel was yielded before, and reports
// whether the enumeration may go on.
func (e *kernelEnum) emit(k []cube.Cube) bool {
	var h uint64
	for _, c := range k {
		h += mix(c.Word())
	}
	head, ok := e.seen[h]
	if !ok {
		head = -1
	}
	e.scratch = e.scratch[:0]
	for _, c := range k {
		e.scratch = append(e.scratch, c.Word())
	}
	slices.Sort(e.scratch)
	for i := head; i >= 0; i = e.next[i] {
		if slices.Equal(e.keys[e.starts[i]:e.end(int(i))], e.scratch) {
			return true
		}
	}
	e.seen[h] = int32(len(e.starts))
	e.next = append(e.next, head)
	e.starts = append(e.starts, len(e.keys))
	e.keys = append(e.keys, e.scratch...)
	return e.yield(k) && (e.limit == 0 || len(e.starts) < e.limit)
}

// end returns where kernel i's words end in keys.
func (e *kernelEnum) end(i int) int {
	if i+1 < len(e.starts) {
		return e.starts[i+1]
	}
	return len(e.keys)
}

// mix is the splitmix64 finalizer: summing it over a kernel's cube
// words gives a hash independent of cube order.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// Kernels enumerates the kernels of f (cube-free primary divisors) with
// Brayton's recursive algorithm, up to limit entries (0 = unlimited).
// The top-level cover itself is included when it is cube-free. Each
// kernel is returned sorted (cube.Cover.Sort).
func Kernels(f *cube.Cover, limit int) []*cube.Cover {
	var out []*cube.Cover
	var e kernelEnum
	e.run(f, limit, func(k []cube.Cube) bool {
		kk := cube.CoverOf(f.NumVars(), k...)
		kk.Sort()
		out = append(out, kk)
		return true
	})
	return out
}

// GoodFactor produces a factored expression for the cover, recursively
// dividing by the best-value kernel; when no kernel helps, it falls back
// to most-frequent-literal (quick) factoring, and finally to flat SOP.
func GoodFactor(f *cube.Cover) *Expr {
	e, _ := GoodFactorPoll(f, nil) // a nil poll never fails
	return e
}

// GoodFactorPoll is GoodFactor with a cancellation hook: poll (nil =
// never) is checked at each kernel-factoring level and before each
// kernel the level scores (scoring one kernel of a 32,768-cube cover
// takes milliseconds), and its first non-nil return is returned.
func GoodFactorPoll(f *cube.Cover, poll func() error) (*Expr, error) {
	fc := factorer{poll: poll}
	return fc.good(f)
}

// factorer carries one GoodFactorPoll call's hook and the kernel
// enumerator its levels share.
type factorer struct {
	poll func() error
	enum kernelEnum
	best []cube.Cube // the best kernel so far at the running level
}

func (fc *factorer) good(f *cube.Cover) (*Expr, error) {
	switch {
	case f.Len() == 0:
		return NewConst(false), nil
	case f.Len() == 1:
		return FromCube(f.Cubes[0]), nil
	}
	for _, c := range f.Cubes {
		if c.NumLiterals() == 0 {
			return NewConst(true), nil
		}
	}

	// Try the best kernel divisor.
	if e, err := fc.bestKernelFactor(f); e != nil || err != nil {
		return e, err
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
		q, r := Divide(f, cube.CoverOf(f.NumVars(), cube.New(f.NumVars()).SetVal(v, val)))
		if q.Len() > 0 {
			qe, err := fc.good(q)
			if err != nil {
				return nil, err
			}
			re, err := fc.good(r)
			if err != nil {
				return nil, err
			}
			return NewOr(NewAnd(NewLit(v, val == cube.Zero), qe), re), nil
		}
	}
	return SOP(f), nil
}

// bestKernelFactor returns the factoring of f by its best kernel, or nil
// if no kernel yields a literal saving. Only the winner is divided.
func (fc *factorer) bestKernelFactor(f *cube.Cover) (*Expr, error) {
	if fc.poll != nil {
		if err := fc.poll(); err != nil {
			return nil, err
		}
	}
	x := newDividend(f)
	bestValue := 0
	fc.best = fc.best[:0]
	var err error
	fc.enum.run(f, kernelCap, func(k []cube.Cube) bool {
		if fc.poll != nil {
			if err = fc.poll(); err != nil {
				return false
			}
		}
		if v := x.value(k, literalCount(k)); v > bestValue {
			bestValue = v
			fc.best = append(fc.best[:0], k...)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if bestValue == 0 {
		return nil, nil
	}
	k := cube.CoverOf(f.NumVars(), fc.best...)
	k.Sort()
	q, r := x.divide(k.Cubes)
	qe, err := fc.good(q)
	if err != nil {
		return nil, err
	}
	ke, err := fc.good(k)
	if err != nil {
		return nil, err
	}
	re, err := fc.good(r)
	if err != nil {
		return nil, err
	}
	return NewOr(NewAnd(qe, ke), re), nil
}
