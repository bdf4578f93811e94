package bitset

import (
	"errors"
	"math/rand"
	"testing"
)

// naiveShift is the per-bit reference for the neighbor permutation.
func naiveShift(s *Set, bit int) *Set {
	out := New(s.Len())
	for i := 0; i < s.Len(); i++ {
		if s.Test(i ^ (1 << bit)) {
			out.Set(i)
		}
	}
	return out
}

func TestShiftNeighborMatchesShiftXor(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, logn := range []int{0, 1, 3, 5, 6, 7, 8, 10} {
		n := 1 << logn
		s := randomSet(rng, n, 0.4)
		for bit := 0; bit < logn; bit++ {
			if !s.ShiftNeighbor(bit).Equal(s.ShiftXor(bit)) {
				t.Fatalf("n=%d bit=%d: ShiftNeighbor != ShiftXor", n, bit)
			}
			if !s.ShiftNeighbor(bit).Equal(naiveShift(s, bit)) {
				t.Fatalf("n=%d bit=%d: ShiftNeighbor != naive", n, bit)
			}
		}
	}
}

func TestShiftNeighborIntoNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := randomSet(rng, 1<<9, 0.5)
	dst := New(1 << 9)
	allocs := testing.AllocsPerRun(100, func() {
		ShiftNeighborInto(dst, s, 7)
	})
	if allocs != 0 {
		t.Fatalf("ShiftNeighborInto allocates %v per run, want 0", allocs)
	}
	if !dst.Equal(s.ShiftXor(7)) {
		t.Fatal("ShiftNeighborInto result mismatch")
	}
}

func TestShiftNeighborIntoRejectsAliasAndMismatch(t *testing.T) {
	s := New(64)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected alias panic")
			}
		}()
		ShiftNeighborInto(s, s, 0)
	}()
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("expected size-mismatch panic")
			}
			err, ok := r.(error)
			if !ok || !errors.Is(err, ErrSizeMismatch) {
				t.Fatalf("panic %v does not match ErrSizeMismatch", r)
			}
		}()
		ShiftNeighborInto(New(128), s, 0)
	}()
}

func TestFusedPopcounts(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		logn := 1 + rng.Intn(10)
		n := 1 << logn
		a := randomSet(rng, n, 0.45)
		b := randomSet(rng, n, 0.45)
		for bit := 0; bit < logn; bit++ {
			diff := a.Clone()
			diff.InPlaceSymDiff(a.ShiftXor(bit))
			if got, want := a.NeighborDiffAndNotPopcount(b, bit), diff.Difference(b).Count(); got != want {
				t.Fatalf("n=%d bit=%d: NeighborDiffAndNotPopcount=%d want %d", n, bit, got, want)
			}
		}
		wantAll := 0
		for bit := 0; bit < logn; bit++ {
			wantAll += a.NeighborDiffAndNotPopcount(b, bit)
		}
		if got := a.NeighborDiffAndNotPopcountAll(b); got != wantAll {
			t.Fatalf("n=%d: NeighborDiffAndNotPopcountAll=%d want %d", n, got, wantAll)
		}
	}
}

func TestFusedPopcountsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randomSet(rng, 1<<10, 0.5)
	b := randomSet(rng, 1<<10, 0.5)
	sink := 0
	allocs := testing.AllocsPerRun(100, func() {
		sink += a.NeighborDiffAndNotPopcount(b, 3) + a.NeighborDiffAndNotPopcount(b, 8) +
			a.NeighborDiffAndNotPopcountAll(b)
	})
	if allocs != 0 {
		t.Fatalf("fused popcounts allocate %v per run, want 0 (sink=%d)", allocs, sink)
	}
}

func TestSizeMismatchTyped(t *testing.T) {
	a, b := New(64), New(128)
	ops := map[string]func(){
		"NeighborDiffAndNotPopcount":    func() { a.NeighborDiffAndNotPopcount(b, 0) },
		"NeighborDiffAndNotPopcountAll": func() { a.NeighborDiffAndNotPopcountAll(b) },
		"InPlaceUnion":                  func() { a.InPlaceUnion(b) },
		"InPlaceIntersect":              func() { a.InPlaceIntersect(b) },
		"InPlaceDifference":             func() { a.InPlaceDifference(b) },
		"InPlaceSymDiff":                func() { a.InPlaceSymDiff(b) },
		"Copy":                          func() { a.Copy(b) },
		"IntersectsWith":                func() { a.IntersectsWith(b) },
		"IntersectionCount":             func() { a.IntersectionCount(b) },
		"SubsetOf":                      func() { a.SubsetOf(b) },
	}
	for name, fn := range ops {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s: expected panic on size mismatch", name)
				}
				err, ok := r.(error)
				if !ok {
					t.Fatalf("%s: panic value %v is not an error", name, r)
				}
				if !errors.Is(err, ErrSizeMismatch) {
					t.Fatalf("%s: panic %v does not match ErrSizeMismatch", name, err)
				}
				var sme *SizeMismatchError
				if !errors.As(err, &sme) {
					t.Fatalf("%s: panic %v is not a *SizeMismatchError", name, err)
				}
				if sme.A == sme.B {
					t.Fatalf("%s: degenerate sizes %d/%d", name, sme.A, sme.B)
				}
			}()
			fn()
		}()
	}
}

func TestCounterAddAndGet(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	n := 1 << 7
	c := NewCounter(n, 5)
	ref := make([]int, n)
	for round := 0; round < 5; round++ {
		s := randomSet(rng, n, 0.5)
		bit := rng.Intn(7)
		c.AddShifted(s, bit)
		for i := 0; i < n; i++ {
			if s.Test(i ^ 1<<bit) {
				ref[i]++
			}
		}
	}
	for i := 0; i < n; i++ {
		if c.Get(i) != ref[i] {
			t.Fatalf("counter[%d]=%d want %d", i, c.Get(i), ref[i])
		}
	}
}

func TestCounterOverflowPanics(t *testing.T) {
	c := NewCounter(64, 1)
	s := New(64)
	s.FillAll()
	c.AddShifted(s, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected counter overflow panic")
		}
	}()
	c.AddShifted(s, 0)
}

func TestCounterAddShiftedAtLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	n := 1 << 8
	s := randomSet(rng, n, 0.5)
	c := NewCounter(n, 12)
	c.AddShiftedAtLevel(s, 2, 0) // + s[m^4]
	c.AddShiftedAtLevel(s, 2, 1) // + 2·s[m^4]
	c.AddShiftedAtLevel(s, 5, 2) // + 4·s[m^32]
	for m := 0; m < n; m++ {
		want := 0
		if s.Test(m ^ 4) {
			want += 3
		}
		if s.Test(m ^ 32) {
			want += 4
		}
		if c.Get(m) != want {
			t.Fatalf("counter[%d]=%d want %d", m, c.Get(m), want)
		}
	}
}

// FuzzKernelEquivalence cross-checks every word-parallel kernel against
// a naive per-bit reference over random on/dc set pairs. The corpus
// seeds pin the half-plane mask boundaries: 2^bit = 32 (the largest
// in-word shift), 64 (the first whole-word swap), and 128 (stride-2
// word swaps).
func FuzzKernelEquivalence(f *testing.F) {
	// (logn, bit, two 64-bit seeds for the on/dc patterns)
	f.Add(uint8(6), uint8(5), uint64(0xdeadbeef), uint64(0x12345678)) // 2^5 = 32: last masked shift
	f.Add(uint8(7), uint8(6), uint64(0xcafebabe), uint64(0x87654321)) // 2^6 = 64: first word swap
	f.Add(uint8(8), uint8(7), uint64(0x0f0f0f0f), uint64(0xf0f0f0f0)) // 2^7 = 128: stride-2 swap
	f.Add(uint8(0), uint8(0), uint64(1), uint64(2))
	f.Add(uint8(10), uint8(9), uint64(3), uint64(4))

	f.Fuzz(func(t *testing.T, lognRaw, bitRaw uint8, seedA, seedB uint64) {
		logn := int(lognRaw) % 11 // n ≤ 2^10 = 1024 minterms
		n := 1 << logn
		bit := 0
		if logn > 0 {
			bit = int(bitRaw) % logn
		}
		rngA := rand.New(rand.NewSource(int64(seedA)))
		rngB := rand.New(rand.NewSource(int64(seedB)))
		on := randomSet(rngA, n, 0.5)
		dc := randomSet(rngB, n, 0.3)

		if logn > 0 {
			shifted := on.ShiftNeighbor(bit)
			naive := naiveShift(on, bit)
			if !shifted.Equal(naive) {
				t.Fatalf("ShiftNeighbor(n=%d,bit=%d) != naive", n, bit)
			}
			into := New(n)
			ShiftNeighborInto(into, on, bit)
			if !into.Equal(naive) {
				t.Fatal("ShiftNeighborInto != naive")
			}
			wantDiffNot := 0
			for m := 0; m < n; m++ {
				if on.Test(m) != on.Test(m^(1<<bit)) && !dc.Test(m) {
					wantDiffNot++
				}
			}
			if got := on.NeighborDiffAndNotPopcount(dc, bit); got != wantDiffNot {
				t.Fatalf("NeighborDiffAndNotPopcount=%d want %d", got, wantDiffNot)
			}
			wantAll := 0
			for m := 0; m < n; m++ {
				if dc.Test(m) {
					continue
				}
				for bb := 0; bb < logn; bb++ {
					if on.Test(m) != on.Test(m^(1<<bb)) {
						wantAll++
					}
				}
			}
			if got := on.NeighborDiffAndNotPopcountAll(dc); got != wantAll {
				t.Fatalf("NeighborDiffAndNotPopcountAll=%d want %d", got, wantAll)
			}
		}

		cen := NewCensus(on, dc.Difference(on))
		for m := 0; m < n; m++ {
			want := 0
			for b := 0; b < logn; b++ {
				if on.Test(m ^ (1 << b)) {
					want++
				}
			}
			if cen.OnAt(m) != want {
				t.Fatalf("census on-count[%d]=%d want %d", m, cen.OnAt(m), want)
			}
		}
	})
}
