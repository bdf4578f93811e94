package cube

import "testing"

// Span and Words mark exactly the minterms Minterms enumerates, for
// every cube of up to 8 variables (Empty literals included), visiting
// each touched word once in ascending order and never a bit past 2^n.
func TestSpanMatchesMintermsExhaustive(t *testing.T) {
	for n := 0; n <= 8; n++ {
		nw := max(1, (1<<uint(n))/64)
		got, want := make([]uint64, nw), make([]uint64, nw)
		for w := uint64(0); w < 1<<uint(2*n); w++ {
			c := Cube{n: n, w: w}
			clear(got)
			clear(want)
			last := -1
			for i, mask := range Words(c.Span()) {
				if i <= last || i >= nw {
					t.Fatalf("n=%d %s: word %d after %d (of %d)", n, c, i, last, nw)
				}
				last = i
				got[i] |= mask
			}
			c.Minterms(func(m uint) { want[m/64] |= 1 << (m % 64) })
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d %s: word %d span %#x, minterms %#x", n, c, i, got[i], want[i])
				}
			}
		}
	}
}
