// Package kcut holds the k-feasible AIG cut enumeration shared by the
// technology mapper and the network clusterer: the leaf set of a cut as
// a comparable value, the bottom-up enumerator (Enumerate) the two
// callers specialize with their own merge and filter, and the poll
// stride of the per-node passes over an AIG.
//
// The enumerator ranks a node's cuts by leaf count and then by the
// byte order of the printed leaf list, fmt.Sprint(leaves). That order is
// not numeric ("[10 3]" sorts before "[2 5]"), but it decides which cuts
// survive truncation and so every mapped netlist and clustered network;
// Compare reproduces it exactly with integer arithmetic.
package kcut

// MaxLeaves is the largest leaf count a Leaves value holds.
const MaxLeaves = 6

// Leaves is a strictly increasing list of at most MaxLeaves AIG node
// indices, each in [0, 2^31). It is a comparable value: == is set
// equality, and copying one never allocates.
type Leaves struct {
	n    uint8
	leaf [MaxLeaves]int32
}

// Of returns the set of the given strictly increasing indices; it panics
// on more than MaxLeaves of them.
func Of(vs ...int) Leaves {
	if len(vs) > MaxLeaves {
		panic("kcut: too many leaves")
	}
	var l Leaves
	for _, v := range vs {
		l.leaf[l.n] = int32(v)
		l.n++
	}
	return l
}

// Len returns the leaf count.
func (l Leaves) Len() int { return int(l.n) }

// At returns leaf i (0 ≤ i < Len).
func (l Leaves) At(i int) int { return int(l.leaf[i]) }

// Ints returns the leaves as a fresh slice.
func (l Leaves) Ints() []int {
	out := make([]int, l.n)
	for i := range out {
		out[i] = int(l.leaf[i])
	}
	return out
}

// Index returns the position of leaf v, or -1 when v is not a leaf.
func (l Leaves) Index(v int) int {
	for i := 0; i < int(l.n); i++ {
		if int(l.leaf[i]) == v {
			return i
		}
	}
	return -1
}

// Select returns the leaves at the positions set in mask, in order.
func (l Leaves) Select(mask uint) Leaves {
	var out Leaves
	for i := 0; i < int(l.n); i++ {
		if mask>>uint(i)&1 == 1 {
			out.leaf[out.n] = l.leaf[i]
			out.n++
		}
	}
	return out
}

// Merge returns the union of a and b, or false when it has more than k
// leaves (k ≤ MaxLeaves).
func Merge(a, b Leaves, k int) (Leaves, bool) {
	var out Leaves
	i, j := 0, 0
	for i < int(a.n) || j < int(b.n) {
		var v int32
		switch {
		case i >= int(a.n):
			v = b.leaf[j]
			j++
		case j >= int(b.n):
			v = a.leaf[i]
			i++
		case a.leaf[i] < b.leaf[j]:
			v = a.leaf[i]
			i++
		case a.leaf[i] > b.leaf[j]:
			v = b.leaf[j]
			j++
		default:
			v = a.leaf[i]
			i++
			j++
		}
		if int(out.n) == k {
			return Leaves{}, false
		}
		out.leaf[out.n] = v
		out.n++
	}
	return out, true
}

// SubsetOf reports whether every leaf of a is a leaf of b.
func (a Leaves) SubsetOf(b Leaves) bool {
	j := 0
	for i := 0; i < int(a.n); i++ {
		v := a.leaf[i]
		for j < int(b.n) && b.leaf[j] < v {
			j++
		}
		if j >= int(b.n) || b.leaf[j] != v {
			return false
		}
	}
	return true
}

// Compare orders cuts the way Enumerate ranks them: fewer leaves
// first, then equal-length lists by the byte order of fmt.Sprint(leaves).
// It returns -1, 0 or +1.
func Compare(a, b Leaves) int {
	if a.n != b.n {
		if a.n < b.n {
			return -1
		}
		return 1
	}
	for i := 0; i < int(a.n); i++ {
		if a.leaf[i] != b.leaf[i] {
			return comparePrinted(uint32(a.leaf[i]), uint32(b.leaf[i]), i == int(a.n)-1)
		}
	}
	return 0
}

// pow10 holds the powers of ten up to the widest uint32.
var pow10 = [...]uint32{1, 10, 100, 1000, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

func digits(x uint32) int {
	d := 1
	for d < len(pow10) && x >= pow10[d] {
		d++
	}
	return d
}

// comparePrinted compares x+sep with y+sep as byte strings, x ≠ y printed
// in decimal, where sep is ']' after the last leaf and ' ' otherwise.
// Within the shorter decimal the digits decide; when the shorter is a
// prefix of the longer, its separator meets a digit of the longer: ' '
// sorts below every digit and ']' above.
func comparePrinted(x, y uint32, last bool) int {
	dx, dy := digits(x), digits(y)
	px, py := x, y
	switch {
	case dx > dy:
		px = x / pow10[dx-dy]
	case dy > dx:
		py = y / pow10[dy-dx]
	}
	if px != py {
		if px < py {
			return -1
		}
		return 1
	}
	// One decimal is a proper prefix of the other (equal lengths would
	// make x == y). The shorter one sorts first unless its separator is ']'.
	shorterFirst := -1
	if last {
		shorterFirst = 1
	}
	if dx < dy {
		return shorterFirst
	}
	return -shorterFirst
}
