// Word-parallel (SWAR) kernels for the Θ(n·2^n) hot loops.
//
// Every paper metric — masked-error rates, complexity factors, border
// counts — reduces to scans that relate each minterm m to its 1-Hamming
// neighbor m^2^i. Over a dense bitset that neighbor permutation is just
// a shift of the whole vector: for 2^i < 64 it acts inside each word as
// a pair of masked shifts, above that it swaps whole words. Composing
// the shift with fused popcounts (the error-rate scan) or with
// bit-sliced counters (the neighbor census in census.go) turns
// per-minterm loops into 64-minterms-per-op passes, the same
// packed-simulation trick ABC uses for bit-parallel truth-table
// evaluation. The scalar oracle the results are held to lives in
// internal/metatest.
package bitset

import (
	"errors"
	"fmt"
	"math/bits"
)

// ErrSizeMismatch is the sentinel matched (via errors.Is) by the
// *SizeMismatchError panics raised when two sets built for different
// universe sizes are combined. Binary ops used to panic with an
// anonymous formatted string, which recovery boundaries (the pipeline
// recovers library panics into typed *StageError values) could not
// classify, and raw Words()-level loops outside this package silently
// truncated to the shorter word slice instead of failing at all.
var ErrSizeMismatch = errors.New("bitset: size mismatch")

// SizeMismatchError reports a binary operation over two sets with
// different capacities. It is raised by panic: mixing universe sizes
// means mixing functions with different input counts, which is a
// programming error, not a runtime condition.
type SizeMismatchError struct {
	Op   string // the operation, e.g. "bitset.AndPopcount"
	A, B int    // the two capacities involved
}

func (e *SizeMismatchError) Error() string {
	return fmt.Sprintf("%s: %v: %d vs %d bits", e.Op, ErrSizeMismatch, e.A, e.B)
}

// Unwrap lets errors.Is(err, ErrSizeMismatch) match recovered panics.
func (e *SizeMismatchError) Unwrap() error { return ErrSizeMismatch }

// NewSizeMismatch builds the typed error for callers outside this
// package that combine raw word slices and must fail loudly instead of
// truncating (see internal/faultsim).
func NewSizeMismatch(op string, a, b int) *SizeMismatchError {
	return &SizeMismatchError{Op: op, A: a, B: b}
}

// checkShift validates the neighbor-permutation preconditions shared by
// ShiftXor, ShiftNeighbor, the fused kernels and the census:
// power-of-two capacity and a bit index inside the input count.
func (s *Set) checkShift(op string, bit int) {
	if s.n == 0 || s.n&(s.n-1) != 0 {
		panic(fmt.Sprintf("bitset: %s requires power-of-two capacity, got %d", op, s.n))
	}
	if bit < 0 || (s.n > 1 && bit >= bits.Len(uint(s.n-1))) {
		panic(fmt.Sprintf("bitset: %s bit %d out of range for capacity %d", op, bit, s.n))
	}
}

// ShiftNeighbor returns a new set t with t[m] = s[m ^ 2^bit]: every
// minterm mapped to its 1-Hamming neighbor along input `bit`. ShiftXor
// is the historical name for the same permutation.
func (s *Set) ShiftNeighbor(bit int) *Set {
	s.checkShift("ShiftNeighbor", bit)
	c := New(s.n)
	ShiftNeighborInto(c, s, bit)
	return c
}

// ShiftNeighborInto writes the neighbor permutation of src along input
// `bit` into dst without allocating. dst must have src's capacity and
// must not alias src (for 2^bit >= 64 the permutation swaps whole words
// and an in-place swap would read already-overwritten words).
func ShiftNeighborInto(dst, src *Set, bit int) {
	src.checkShift("ShiftNeighborInto", bit)
	if dst.n != src.n {
		panic(NewSizeMismatch("bitset.ShiftNeighborInto", dst.n, src.n))
	}
	if dst == src {
		panic("bitset: ShiftNeighborInto dst must not alias src")
	}
	if bit < 6 {
		sh := uint(1) << uint(bit)
		mask := xorMasks[bit]
		for i, w := range src.words {
			// Bits whose `bit` is 0 move up by sh; bits whose `bit` is 1 move down.
			dst.words[i] = (w&mask)<<sh | (w>>sh)&mask
		}
	} else {
		stride := 1 << uint(bit-6) // distance in words
		for i := range src.words {
			dst.words[i] = src.words[i^stride]
		}
	}
	dst.trim()
}

// NeighborDiffAndNotPopcount returns |{m ∉ excl : s[m] != s[m ^ 2^bit]}|
// — the number of minterms outside excl whose value changes when input
// `bit` flips — in one fused pass. The error-rate scan cares about
// everything outside the DC set, so taking the DC set directly avoids
// materializing a complemented care set per call. For bits at or above
// 6 the value difference w_i ^ w_{i^stride} is symmetric in the word
// pair, so each XOR is computed once and masked against both exclusion
// words. Padding bits are safe without trimming: the XOR of two trimmed
// words is trimmed, and the neighbor permutation maps padding positions
// to padding positions.
func (s *Set) NeighborDiffAndNotPopcount(excl *Set, bit int) int {
	s.checkShift("NeighborDiffAndNotPopcount", bit)
	s.mustMatch("bitset.NeighborDiffAndNotPopcount", excl)
	c := 0
	if bit < 6 {
		sh := uint(1) << uint(bit)
		mask := xorMasks[bit]
		ew := excl.words[:len(s.words)] // bounds-check elimination
		for i, w := range s.words {
			c += bits.OnesCount64((w ^ ((w&mask)<<sh | (w>>sh)&mask)) &^ ew[i])
		}
	} else {
		stride := 1 << uint(bit-6)
		ew, sw := excl.words, s.words
		for base := 0; base < len(sw); base += 2 * stride {
			lo, hi := sw[base:base+stride], sw[base+stride:base+2*stride]
			elo, ehi := ew[base:base+stride], ew[base+stride:base+2*stride]
			for i, w := range lo {
				x := w ^ hi[i]
				c += bits.OnesCount64(x&^elo[i]) + bits.OnesCount64(x&^ehi[i])
			}
		}
	}
	return c
}

// NeighborDiffAndNotPopcountAll sums NeighborDiffAndNotPopcount over
// every input bit: |{(m, b) : m ∉ excl, s[m] != s[m ^ 2^b]}| — the full
// error-event count of one output in a single call. The six in-word
// bits share one fully unrolled pass (each word and its exclusion mask
// are loaded once and feed six shift+popcount lanes), and every
// word-swap bit reuses the symmetric-pair halving of the per-bit
// kernel. This is what the error-rate scan calls.
func (s *Set) NeighborDiffAndNotPopcountAll(excl *Set) int {
	s.checkShift("NeighborDiffAndNotPopcountAll", 0)
	s.mustMatch("bitset.NeighborDiffAndNotPopcountAll", excl)
	k := bits.Len(uint(s.n - 1))
	if s.n == 1 {
		k = 0
	}
	c := 0
	if s.n >= 64 {
		// All six in-word bits in one pass.
		ew := excl.words[:len(s.words)]
		for i, w := range s.words {
			keep := ^ew[i]
			c += bits.OnesCount64((w^((w&xorMasks[0])<<1|(w>>1)&xorMasks[0]))&keep) +
				bits.OnesCount64((w^((w&xorMasks[1])<<2|(w>>2)&xorMasks[1]))&keep) +
				bits.OnesCount64((w^((w&xorMasks[2])<<4|(w>>4)&xorMasks[2]))&keep) +
				bits.OnesCount64((w^((w&xorMasks[3])<<8|(w>>8)&xorMasks[3]))&keep) +
				bits.OnesCount64((w^((w&xorMasks[4])<<16|(w>>16)&xorMasks[4]))&keep) +
				bits.OnesCount64((w^((w&xorMasks[5])<<32|(w>>32)&xorMasks[5]))&keep)
		}
	} else {
		for b := 0; b < k; b++ {
			c += s.NeighborDiffAndNotPopcount(excl, b)
		}
		return c
	}
	for b := 6; b < k; b++ {
		c += s.NeighborDiffAndNotPopcount(excl, b)
	}
	return c
}

// Counter is a bit-sliced (vertical SWAR) counter: one small unsigned
// counter per position of a 2^k minterm space, stored as bit planes so
// that 64 counters are updated per word operation. It is how the
// census recovers *per-minterm* quantities (neighbor counts, local
// complexity numerators) that a popcount alone cannot: adding a 0/1
// set into the counter is a ripple-carry across the planes.
type Counter struct {
	n      int
	planes []*Set
}

// NewCounter returns a counter over an n-position space that can hold
// values up to max in every position. Exceeding max panics ("counter
// overflow"): a silent wrap would corrupt metric results.
func NewCounter(n, max int) *Counter {
	if max < 1 {
		panic(fmt.Sprintf("bitset: counter max %d < 1", max))
	}
	c := &Counter{n: n, planes: make([]*Set, bits.Len(uint(max)))}
	for i := range c.planes {
		c.planes[i] = New(n)
	}
	return c
}

// Len returns the number of positions.
func (c *Counter) Len() int { return c.n }

// addWordAt ripple-carries the 0/1-per-position word x into word wi of
// the planes, entering at plane `level` (i.e. adding x·2^level).
func (c *Counter) addWordAt(wi int, x uint64, level int) {
	for p := level; p < len(c.planes); p++ {
		if x == 0 {
			return
		}
		carry := c.planes[p].words[wi] & x
		c.planes[p].words[wi] ^= x
		x = carry
	}
	if x != 0 {
		panic("bitset: counter overflow")
	}
}

// AddShifted increments every position m by s[m ^ 2^bit], fusing the
// neighbor shift into the carry pass.
func (c *Counter) AddShifted(s *Set, bit int) { c.AddShiftedAtLevel(s, bit, 0) }

// AddShiftedAtLevel increments every position m by s[m ^ 2^bit]·2^level.
// Weighted adds let one counter fold another counter's planes: plane p
// of a census counter enters at level p.
func (c *Counter) AddShiftedAtLevel(s *Set, bit, level int) {
	s.checkShift("Counter.AddShiftedAtLevel", bit)
	if s.n != c.n {
		panic(NewSizeMismatch("bitset.Counter.AddShiftedAtLevel", c.n, s.n))
	}
	if level < 0 || level >= len(c.planes) {
		panic(fmt.Sprintf("bitset: counter level %d outside [0,%d)", level, len(c.planes)))
	}
	if bit < 6 {
		sh := uint(1) << uint(bit)
		mask := xorMasks[bit]
		for wi, w := range s.words {
			c.addWordAt(wi, (w&mask)<<sh|(w>>sh)&mask, level)
		}
	} else {
		stride := 1 << uint(bit-6)
		for wi := range s.words {
			c.addWordAt(wi, s.words[wi^stride], level)
		}
	}
}

// decodePlanes is the core of Values8/Values16: one trailing-zero
// scatter pass per plane into a fresh zeroed array, so the cost is
// proportional to the number of one-bits across planes (~the average
// binary weight of the counts) instead of planes × positions with a
// bounds-checked Get call per position.
func decodePlanes[T uint8 | uint16](n int, planes []*Set) []T {
	dst := make([]T, n)
	for p := range planes {
		words := planes[p].words
		for wi, w := range words {
			base := wi * wordBits
			for w != 0 {
				b := bits.TrailingZeros64(w)
				dst[base+b] |= 1 << uint(p)
				w &= w - 1
			}
		}
	}
	return dst
}

// Values8 decodes every counter position into a fresh byte array, for
// counters whose values fit eight planes. Every neighbor census qualifies (counts are bounded by the
// input count); wider counters panic rather than truncate.
func (c *Counter) Values8() []uint8 {
	if len(c.planes) > 8 {
		panic(fmt.Sprintf("bitset: Values8 on %d-plane counter", len(c.planes)))
	}
	return decodePlanes[uint8](c.n, c.planes)
}

// Values16 is Values8 for counters up to sixteen planes — wide enough
// for the LC^f two-step fold, whose values are bounded by k².
func (c *Counter) Values16() []uint16 {
	if len(c.planes) > 16 {
		panic(fmt.Sprintf("bitset: Values16 on %d-plane counter", len(c.planes)))
	}
	return decodePlanes[uint16](c.n, c.planes)
}

// Get returns the counter value at position m.
func (c *Counter) Get(m int) int {
	if m < 0 || m >= c.n {
		panic(fmt.Sprintf("bitset: counter index %d out of range [0,%d)", m, c.n))
	}
	wi, b := m/wordBits, uint(m)%wordBits
	v := 0
	for p := range c.planes {
		v |= int(c.planes[p].words[wi]>>b&1) << p
	}
	return v
}
