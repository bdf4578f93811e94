package cube

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func mustParse(t *testing.T, s string) Cube {
	t.Helper()
	c, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return c
}

func TestParseAndString(t *testing.T) {
	for _, s := range []string{"", "0", "1", "-", "01-1", "----", "110010"} {
		c := mustParse(t, s)
		if got := c.String(); got != s {
			t.Fatalf("round trip %q -> %q", s, got)
		}
	}
	if c := mustParse(t, "2xX-"); c.String() != "----" {
		t.Fatalf("alt DC chars: got %q", c.String())
	}
	if _, err := Parse("01a"); err == nil {
		t.Fatal("expected error for invalid char")
	}
}

func TestValSetVal(t *testing.T) {
	c := New(MaxVars) // every slot of the word in use
	for i := 0; i < MaxVars; i++ {
		if c.Val(i) != Full {
			t.Fatalf("new cube var %d = %v, want Full", i, c.Val(i))
		}
	}
	c2 := c.SetVal(0, Zero).SetVal(30, One).SetVal(31, Zero)
	if c2.Val(0) != Zero || c2.Val(30) != One || c2.Val(31) != Zero {
		t.Fatal("SetVal values not read back")
	}
	if c.Val(0) != Full || c.Val(31) != Full {
		t.Fatal("SetVal mutated the receiver (should copy on write)")
	}
	if c2.Val(1) != Full || c2.Val(29) != Full {
		t.Fatal("SetVal disturbed neighboring variables")
	}
	if c2.String() != "0"+strings.Repeat("-", 29)+"10" {
		t.Fatalf("top-slot cube renders %q", c2.String())
	}
}

func TestWidthAboveMaxVarsRejected(t *testing.T) {
	if _, err := Parse(strings.Repeat("1", MaxVars+1)); err == nil {
		t.Fatal("Parse accepted a cube wider than MaxVars")
	}
	if c, err := Parse(strings.Repeat("1", MaxVars)); err != nil || c.NumLiterals() != MaxVars {
		t.Fatalf("Parse at MaxVars: %v, %d literals", err, c.NumLiterals())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New(MaxVars+1) did not panic")
		}
	}()
	New(MaxVars + 1)
}

func TestDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"01-1", "01-1", 0},
		{"01-1", "11-1", 1},
		{"0101", "1010", 4},
		{"----", "0101", 0},
		{"0---", "1---", 1},
		{"00--", "11--", 2},
	}
	for _, tc := range cases {
		a, b := mustParse(t, tc.a), mustParse(t, tc.b)
		if got := a.Distance(b); got != tc.want {
			t.Errorf("Distance(%s,%s) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
		if got := b.Distance(a); got != tc.want {
			t.Errorf("Distance symmetric fail (%s,%s)", tc.b, tc.a)
		}
	}
}

func TestDistanceWideCube(t *testing.T) {
	// The widest cube: conflicts at the lowest, a middle and the top
	// slot of its word.
	a := New(MaxVars).SetVal(0, Zero).SetVal(17, One).SetVal(31, Zero)
	b := New(MaxVars).SetVal(0, One).SetVal(17, Zero).SetVal(31, One)
	if got := a.Distance(b); got != 3 {
		t.Fatalf("top-slot Distance = %d, want 3", got)
	}
	if got := a.Distance(a.SetVal(31, One)); got != 1 {
		t.Fatalf("Distance in var 31 alone = %d, want 1", got)
	}
}

func TestIntersect(t *testing.T) {
	a := mustParse(t, "0--1")
	b := mustParse(t, "-1-1")
	r, ok := a.Intersect(b)
	if !ok || r.String() != "01-1" {
		t.Fatalf("Intersect = %q ok=%v", r.String(), ok)
	}
	c := mustParse(t, "1---")
	if _, ok := a.Intersect(c); ok {
		t.Fatal("disjoint cubes reported intersecting")
	}
}

func TestContains(t *testing.T) {
	big := mustParse(t, "0---")
	small := mustParse(t, "01-1")
	if !big.Contains(small) {
		t.Fatal("0--- should contain 01-1")
	}
	if small.Contains(big) {
		t.Fatal("01-1 should not contain 0---")
	}
	if !big.Contains(big) {
		t.Fatal("cube should contain itself")
	}
}

func TestContainsMinterm(t *testing.T) {
	c := mustParse(t, "01-1") // x0=0, x1=1, x2 free, x3=1
	// minterm bits: variable i is bit i.
	want := map[uint]bool{
		0b1010: true,  // x0=0,x1=1,x2=0,x3=1
		0b1110: true,  // x2=1
		0b1011: false, // x0=1
		0b0010: false, // x3=0
	}
	for m, w := range want {
		if got := c.ContainsMinterm(m); got != w {
			t.Errorf("ContainsMinterm(%04b) = %v, want %v", m, got, w)
		}
	}
}

func TestLiteralAndMintermCounts(t *testing.T) {
	cases := []struct {
		s    string
		lits int
		mins uint64
	}{
		{"----", 0, 16},
		{"0---", 1, 8},
		{"01-1", 3, 2},
		{"0101", 4, 1},
	}
	for _, tc := range cases {
		c := mustParse(t, tc.s)
		if got := c.NumLiterals(); got != tc.lits {
			t.Errorf("%s NumLiterals = %d, want %d", tc.s, got, tc.lits)
		}
		var got uint64
		c.Minterms(func(uint) { got++ })
		if got != tc.mins {
			t.Errorf("%s enumerates %d minterms, want %d", tc.s, got, tc.mins)
		}
	}
}

func TestMintermsEnumeration(t *testing.T) {
	c := mustParse(t, "-1-0")
	var got []uint
	c.Minterms(func(m uint) { got = append(got, m) })
	if uint64(len(got)) != mintermCount(c) {
		t.Fatalf("enumerated %d minterms, want %d", len(got), mintermCount(c))
	}
	seen := map[uint]bool{}
	for _, m := range got {
		if !c.ContainsMinterm(m) {
			t.Fatalf("enumerated minterm %04b not in cube", m)
		}
		if seen[m] {
			t.Fatalf("duplicate minterm %04b", m)
		}
		seen[m] = true
	}
}

func TestFromMinterm(t *testing.T) {
	c := FromMinterm(4, 0b1010)
	if c.String() != "0101" {
		t.Fatalf("FromMinterm = %q, want 0101", c.String())
	}
	if !c.ContainsMinterm(0b1010) || mintermCount(c) != 1 {
		t.Fatal("FromMinterm should cover exactly its minterm")
	}
}

// mintermCount is 2^(free variables), the number of minterms c covers.
func mintermCount(c Cube) uint64 {
	return 1 << uint(c.NumVars()-c.NumLiterals())
}

func randomCube(rng *rand.Rand, n int) Cube {
	c := New(n)
	for i := 0; i < n; i++ {
		switch rng.Intn(3) {
		case 0:
			c = c.SetVal(i, Zero)
		case 1:
			c = c.SetVal(i, One)
		}
	}
	return c
}

// Property: Distance(a,b) == 0 iff a and b share a minterm (checked
// exhaustively on small n).
func TestDistanceZeroIffSharedMinterm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		a, b := randomCube(rng, n), randomCube(rng, n)
		shared := false
		for m := uint(0); m < 1<<uint(n); m++ {
			if a.ContainsMinterm(m) && b.ContainsMinterm(m) {
				shared = true
				break
			}
		}
		if (a.Distance(b) == 0) != shared {
			t.Fatalf("distance/minterm disagreement: %s vs %s", a, b)
		}
	}
}

// Property: Contains(a,b) iff every minterm of b is in a.
func TestContainsMatchesMinterms(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		a, b := randomCube(rng, n), randomCube(rng, n)
		all := true
		b.Minterms(func(m uint) {
			if !a.ContainsMinterm(m) {
				all = false
			}
		})
		if a.Contains(b) != all {
			t.Fatalf("contains/minterm disagreement: %s vs %s", a, b)
		}
	}
}

func TestCoverBasics(t *testing.T) {
	cv := NewCover(4)
	cv.Add(mustParse(t, "01--"))
	cv.Add(mustParse(t, "1--1"))
	if cv.Len() != 2 || cv.NumVars() != 4 {
		t.Fatal("cover shape wrong")
	}
	if !cv.ContainsMinterm(0b0010) { // x0=0,x1=1 matches first cube
		t.Fatal("cover should contain 0b0010")
	}
	if cv.ContainsMinterm(0b0100) {
		t.Fatal("cover should not contain 0b0100")
	}
	if got := cv.LiteralCount(); got != 4 {
		t.Fatalf("LiteralCount = %d, want 4", got)
	}
}

func TestCoverSortDeterministic(t *testing.T) {
	cv := CoverOf(3,
		mustParse(t, "111"),
		mustParse(t, "0--"),
		mustParse(t, "-1-"),
	)
	cv.Sort()
	want := []string{"-1-", "0--", "111"}
	for i, w := range want {
		if cv.Cubes[i].String() != w {
			t.Fatalf("sort order: got %s at %d, want %s", cv.Cubes[i], i, w)
		}
	}
}

// Sort gives the order of the stable sort it replaced, by literal count
// and then Compare, on random covers of every width with repeated cubes.
func TestCoverSortMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2603))
	for trial := 0; trial < 5000; trial++ {
		n := 1 + trial%MaxVars
		cv := NewCover(n)
		for k := rng.Intn(40); k > 0; k-- {
			if cv.Len() > 0 && rng.Intn(4) == 0 {
				cv.Add(cv.Cubes[rng.Intn(cv.Len())])
			} else {
				cv.Add(randomCube(rng, n))
			}
		}
		want := slices.Clone(cv.Cubes)
		slices.SortStableFunc(want, func(a, b Cube) int {
			if la, lb := a.NumLiterals(), b.NumLiterals(); la != lb {
				return la - lb
			}
			return Compare(a, b)
		})
		cv.Sort()
		if !slices.Equal(cv.Cubes, want) {
			t.Fatalf("trial %d (n=%d): Sort gave\n%s\nstable sort\n%s", trial, n, cv, CoverOf(n, want...))
		}
	}
}

func TestCoverAddWrongWidthPanics(t *testing.T) {
	cv := NewCover(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic adding wrong-width cube")
		}
	}()
	cv.Add(New(4))
}

// Property: Compare orders cubes exactly as their String forms compare,
// at every width the package represents, including unequal widths.
func TestCompareMatchesStringOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 20000; trial++ {
		n := rng.Intn(MaxVars + 1)
		a := randomCube(rng, n)
		var b Cube
		switch rng.Intn(4) {
		case 0:
			b = a // equal
		case 1: // differ in one variable
			b = a
			if n > 0 {
				v := rng.Intn(n)
				b = b.SetVal(v, Literal(1+rng.Intn(3)))
			}
		case 2:
			b = randomCube(rng, rng.Intn(MaxVars+1))
		default:
			b = randomCube(rng, n)
		}
		if rng.Intn(8) == 0 && n > 0 { // an Empty variable renders '?'
			a = a.SetVal(rng.Intn(n), Empty)
		}
		if got, want := Compare(a, b), strings.Compare(a.String(), b.String()); got != want {
			t.Fatalf("Compare(%q, %q) = %d, want %d", a, b, got, want)
		}
		if got, want := Compare(b, a), strings.Compare(b.String(), a.String()); got != want {
			t.Fatalf("Compare(%q, %q) = %d, want %d", b, a, got, want)
		}
	}
}

// Property: Masks, FreeMask, Minterms and FromMinterm agree with the
// per-variable view.
func TestMasksAndMintermsMatchVal(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(11)
		c := randomCube(rng, n)
		ones, zeros := c.Masks()
		free := c.FreeMask()
		for v := 0; v < n; v++ {
			bit := uint32(1) << uint(v)
			if (ones&bit != 0) != (c.Val(v) == One) || (zeros&bit != 0) != (c.Val(v) == Zero) ||
				(free&bit != 0) != (c.Val(v) == Full) {
				t.Fatalf("%s: masks disagree at var %d", c, v)
			}
		}
		var got []uint
		c.Minterms(func(m uint) { got = append(got, m) })
		var want []uint
		for m := uint(0); m < 1<<uint(n); m++ {
			if c.ContainsMinterm(m) {
				want = append(want, m)
				if !c.Contains(FromMinterm(n, m)) {
					t.Fatalf("%s does not contain FromMinterm(%d)", c, m)
				}
			}
		}
		if len(got) != len(want) || uint64(len(got)) != mintermCount(c) {
			t.Fatalf("%s: Minterms gave %d, want %d", c, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: Minterms order %v, want %v", c, got, want)
			}
		}
	}
}

// Property: DivisibleBy and Quotient match their per-variable definitions.
func TestDivisibleByAndQuotient(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(MaxVars)
		c, d := randomCube(rng, n), randomCube(rng, n)
		if rng.Intn(2) == 0 { // make divisibility likely
			for v := 0; v < n; v++ {
				if d.Val(v) != Full && rng.Intn(3) > 0 {
					c = c.SetVal(v, d.Val(v))
				}
			}
		}
		div, q := true, c
		for v := 0; v < n; v++ {
			if d.Val(v) != Full {
				if c.Val(v) != d.Val(v) {
					div = false
				}
				q = q.SetVal(v, Full)
			}
		}
		if c.DivisibleBy(d) != div || c.Quotient(d) != q {
			t.Fatalf("c=%s d=%s: DivisibleBy=%v Quotient=%s, want %v %s",
				c, d, c.DivisibleBy(d), c.Quotient(d), div, q)
		}
	}
}
