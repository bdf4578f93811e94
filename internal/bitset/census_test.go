package bitset

import (
	"math/bits"
	"math/rand"
	"testing"
)

// randomPhases deals each minterm of a 2^k space into on/dc/off with
// the given DC weight.
func randomPhases(k int, dcFrac float64, seed int64) (on, dc *Set) {
	n := 1 << uint(k)
	rng := rand.New(rand.NewSource(seed))
	on, dc = New(n), New(n)
	for m := 0; m < n; m++ {
		switch r := rng.Float64(); {
		case r < dcFrac:
			dc.Set(m)
		case rng.Intn(2) == 0:
			on.Set(m)
		}
	}
	return on, dc
}

// scalarNeighborCount is the oracle: per-minterm neighbor membership by
// direct enumeration.
func scalarNeighborCount(s *Set, m, k int) int {
	c := 0
	for b := 0; b < k; b++ {
		if s.Test(m ^ 1<<uint(b)) {
			c++
		}
	}
	return c
}

func TestCensusCountsMatchScalar(t *testing.T) {
	for _, k := range []int{0, 1, 3, 6, 8} {
		on, dc := randomPhases(k, 0.3, int64(100+k))
		c := NewCensus(on, dc)
		off := c.Off()
		n := 1 << uint(k)
		for m := 0; m < n; m++ {
			if got, want := c.OnAt(m), scalarNeighborCount(on, m, k); got != want {
				t.Fatalf("k=%d m=%d OnAt=%d want %d", k, m, got, want)
			}
			if got, want := c.OffAt(m), scalarNeighborCount(off, m, k); got != want {
				t.Fatalf("k=%d m=%d OffAt=%d want %d", k, m, got, want)
			}
			if got, want := c.DCAt(m), scalarNeighborCount(dc, m, k); got != want {
				t.Fatalf("k=%d m=%d DCAt=%d want %d", k, m, got, want)
			}
			if c.OnAt(m)+c.OffAt(m)+c.DCAt(m) != k {
				t.Fatalf("k=%d m=%d censuses do not partition the neighborhood", k, m)
			}
		}
	}
}

func TestCensusSnapshotsInputs(t *testing.T) {
	on, dc := randomPhases(6, 0.4, 7)
	c := NewCensus(on, dc)
	before := c.OnAt(0)
	// Mutating the source sets after the build (as DC assignment does)
	// must not change what the census reports.
	on.FillAll()
	dc.Reset()
	if c.OnAt(0) != before {
		t.Fatal("census aliases its input sets instead of snapshotting them")
	}
}

func TestCensusBasePairs(t *testing.T) {
	for _, k := range []int{2, 6, 7} {
		on, dc := randomPhases(k, 0.25, int64(200+k))
		c := NewCensus(on, dc)
		want := 0
		for b := 0; b < k; b++ {
			want += 2 * on.IntersectionCount(c.Off().ShiftXor(b))
		}
		if got := c.BasePairs(); got != want {
			t.Fatalf("k=%d BasePairs=%d want %d", k, got, want)
		}
	}
}

func TestCensusDCPairBounds(t *testing.T) {
	on, dc := randomPhases(7, 0.5, 42)
	c := NewCensus(on, dc)
	wantMin, wantMax := 0, 0
	dc.ForEach(func(m int) {
		onN, offN := scalarNeighborCount(on, m, 7), scalarNeighborCount(c.Off(), m, 7)
		wantMin += min(onN, offN)
		wantMax += max(onN, offN)
	})
	gotMin, gotMax := c.DCPairBounds()
	if gotMin != wantMin || gotMax != wantMax {
		t.Fatalf("DCPairBounds=(%d,%d) want (%d,%d)", gotMin, gotMax, wantMin, wantMax)
	}
}

func TestCensusBorders(t *testing.T) {
	for _, k := range []int{1, 5, 8} {
		on, dc := randomPhases(k, 0.3, int64(300+k))
		c := NewCensus(on, dc)
		n := 1 << uint(k)
		var want0, want1, wantDC int
		for m := 0; m < n; m++ {
			switch {
			case on.Test(m):
				want1 += k - scalarNeighborCount(on, m, k)
			case dc.Test(m):
				wantDC += k - scalarNeighborCount(dc, m, k)
			default:
				want0 += k - scalarNeighborCount(c.Off(), m, k)
			}
		}
		b0, b1, bdc := c.Borders()
		if b0 != want0 || b1 != want1 || bdc != wantDC {
			t.Fatalf("k=%d Borders=(%d,%d,%d) want (%d,%d,%d)", k, b0, b1, bdc, want0, want1, wantDC)
		}
	}
}

func TestCensusSamePhase(t *testing.T) {
	on, dc := randomPhases(8, 0.35, 9)
	c := NewCensus(on, dc)
	n := 1 << 8
	sp := c.SamePhaseCounter()
	wantTotal := 0
	for m := 0; m < n; m++ {
		var want int
		switch {
		case on.Test(m):
			want = scalarNeighborCount(on, m, 8)
		case dc.Test(m):
			want = scalarNeighborCount(dc, m, 8)
		default:
			want = scalarNeighborCount(c.Off(), m, 8)
		}
		if got := sp.Get(m); got != want {
			t.Fatalf("m=%d SamePhaseCounter=%d want %d", m, got, want)
		}
		wantTotal += want
	}
	if got := c.SamePhasePairs(); got != wantTotal {
		t.Fatalf("SamePhasePairs=%d want %d", got, wantTotal)
	}
}

// TestMaskedCounterSumBlocked drives the blocked reduction across the
// block boundary (multiple popcountBlockWords tiles plus a ragged
// tail) against a Get-per-minterm oracle.
func TestMaskedCounterSumBlocked(t *testing.T) {
	k := 16 // 1024 words: two default tiles, one v3 tile
	if 1<<uint(k-6) <= popcountBlockWords {
		t.Logf("note: n=2^%d fits one block of %d words; boundary exercised only on smaller block sizes", k, popcountBlockWords)
	}
	on, dc := randomPhases(k, 0.3, 77)
	cnt := NewCensus(on, dc).onCnt
	want := 0
	dc.ForEach(func(m int) { want += cnt.Get(m) })
	if got := MaskedCounterSum(cnt, dc); got != want {
		t.Fatalf("MaskedCounterSum=%d want %d", got, want)
	}
}

func TestCensusBytes(t *testing.T) {
	on, dc := randomPhases(10, 0.3, 5)
	c := NewCensus(on, dc)
	words := 1 << 10 / 64
	wantMin := 8 * words * (3 + 3*bits.Len(10))
	if got := c.Bytes(); got < wantMin/2 || got > 4*wantMin {
		t.Fatalf("Bytes=%d, implausible for n=1024 (expected near %d)", got, wantMin)
	}
}
