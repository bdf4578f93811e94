package cube

import "iter"

// inWord[k][ones|zeros<<3] is the in-word minterm mask of a cube whose
// literals on variables 3k..3k+2 are the 3-bit masks ones and zeros: the
// bits of a 64-minterm word (variables 0..5) those literals admit.
var inWord = func() (t [2][64]uint64) {
	// pats[v] = the minterms of a word with variable v set.
	pats := [6]uint64{
		0xaaaaaaaaaaaaaaaa,
		0xcccccccccccccccc,
		0xf0f0f0f0f0f0f0f0,
		0xff00ff00ff00ff00,
		0xffff0000ffff0000,
		0xffffffff00000000,
	}
	for k := range t {
		for code := range t[k] {
			mask := ^uint64(0)
			for j := 0; j < 3; j++ {
				if code>>uint(j)&1 == 1 {
					mask &= pats[3*k+j]
				}
				if code>>uint(3+j)&1 == 1 {
					mask &^= pats[3*k+j]
				}
			}
			t[k][code] = mask
		}
	}
	return t
}()

// Span locates c's minterms in a 2^n-bit set stored as 64-bit words
// (minterm m at bit m%64 of word m/64): c touches word base|s for every
// subset s of free, and mask is the in-word mask of its minterms, the
// same in each. Variables 0..5 select bits within a word; the higher
// variables select words. A cube with an Empty variable has mask 0.
func (c Cube) Span() (mask uint64, base, free uint32) {
	if (c.w|c.w>>1)&evenMask != evenMask&pairMask(c.n) {
		return 0, 0, 0 // an Empty pair has neither bit set
	}
	ones, zeros := c.Masks()
	free = varMask(c.n) &^ (ones | zeros)
	mask = inWord[0][ones&7|(zeros&7)<<3] &
		inWord[1][ones>>3&7|(zeros>>3&7)<<3]
	if c.n < 6 {
		// Only the first 2^n bits of the one word are minterms.
		mask &= uint64(1)<<(uint(1)<<uint(c.n)) - 1
	}
	return mask, ones >> 6, free >> 6
}

// Words yields the index and in-word minterm mask of every word of a
// span (see Cube.Span), in ascending index order.
func Words(mask uint64, base, free uint32) iter.Seq2[int, uint64] {
	return func(yield func(int, uint64) bool) {
		// Subsets of free in ascending order: s ← (s − free) & free.
		for s := uint32(0); yield(int(base|s), mask); {
			if s = (s - free) & free; s == 0 {
				return
			}
		}
	}
}
