package reliability

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"relsyn/internal/bitset"
	"relsyn/internal/census"
	"relsyn/internal/tt"
)

// censuses builds f's per-output censuses at the given worker count.
func censuses(t *testing.T, f *tt.Function, parallelism int) []*bitset.Census {
	t.Helper()
	fc, err := census.Compute(context.Background(), f, parallelism)
	if err != nil {
		t.Fatal(err)
	}
	return fc.Outs
}

// mustRate unwraps an (ErrorRate*, error) pair for tests whose inputs
// are dimensionally valid by construction: mustRate(t)(ErrorRate(...)).
func mustRate(t *testing.T) func(float64, error) float64 {
	return func(r float64, err error) float64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
}

func randomFunction(rng *rand.Rand, n, m int) *tt.Function {
	f := tt.New(n, m)
	for o := 0; o < m; o++ {
		for mm := 0; mm < f.Size(); mm++ {
			f.SetPhase(o, mm, tt.Phase(rng.Intn(3)))
		}
	}
	return f
}

func naiveExact(f *tt.Function, o int) Counts {
	var c Counts
	n := f.NumIn
	for m := 0; m < f.Size(); m++ {
		switch f.Phase(o, m) {
		case tt.On, tt.Off:
			for b := 0; b < n; b++ {
				nb := f.Phase(o, m^(1<<uint(b)))
				if (f.Phase(o, m) == tt.On && nb == tt.Off) || (f.Phase(o, m) == tt.Off && nb == tt.On) {
					c.BasePairs++
				}
			}
		case tt.DC:
			on, off := 0, 0
			for b := 0; b < n; b++ {
				switch f.Phase(o, m^(1<<uint(b))) {
				case tt.On:
					on++
				case tt.Off:
					off++
				}
			}
			if on < off {
				c.MinDCPairs += on
				c.MaxDCPairs += off
			} else {
				c.MinDCPairs += off
				c.MaxDCPairs += on
			}
		}
	}
	return c
}

func TestExactCountsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{2, 4, 6, 8} {
		for trial := 0; trial < 5; trial++ {
			f := randomFunction(rng, n, 1)
			got := ExactCounts(census.Output(f, 0))
			want := naiveExact(f, 0)
			if got != want {
				t.Fatalf("n=%d: got %+v want %+v", n, got, want)
			}
		}
	}
}

func TestExactCountsXOR(t *testing.T) {
	// Fully specified parity: every one of the n·2^n events propagates.
	n := 5
	f := tt.New(n, 1)
	for m := 0; m < f.Size(); m++ {
		if popcount(m)%2 == 1 {
			f.SetPhase(0, m, tt.On)
		}
	}
	c := ExactCounts(census.Output(f, 0))
	if c.BasePairs != n*f.Size() {
		t.Fatalf("XOR base pairs = %d, want %d", c.BasePairs, n*f.Size())
	}
	if c.MinDCPairs != 0 || c.MaxDCPairs != 0 {
		t.Fatal("fully specified function should have zero DC pair counts")
	}
	lo, hi := Bounds(census.Output(f, 0))
	if lo != 1.0 || hi != 1.0 {
		t.Fatalf("XOR bounds = (%v,%v), want (1,1)", lo, hi)
	}
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		c += x & 1
		x >>= 1
	}
	return c
}

func TestExactCountsConstant(t *testing.T) {
	f := tt.New(4, 1)
	c := ExactCounts(census.Output(f, 0))
	if c.BasePairs != 0 || c.MinDCPairs != 0 || c.MaxDCPairs != 0 {
		t.Fatalf("constant function counts = %+v, want zeros", c)
	}
}

func TestBoundsOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		f := randomFunction(rng, 6, 1)
		lo, hi := Bounds(census.Output(f, 0))
		if lo > hi {
			t.Fatalf("lo %v > hi %v", lo, hi)
		}
		if lo < 0 || hi > 1 {
			t.Fatalf("bounds (%v,%v) out of [0,1]", lo, hi)
		}
	}
}

// Any complete assignment of the DCs must land inside [lo, hi] when its
// error rate is measured against the original care set.
func TestBoundsContainAllAssignments(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 20; trial++ {
		spec := randomFunction(rng, 5, 1)
		lo, hi := Bounds(census.Output(spec, 0))
		for assignTrial := 0; assignTrial < 10; assignTrial++ {
			impl := spec.Clone()
			spec.Outs[0].DC.ForEach(func(m int) {
				if rng.Intn(2) == 0 {
					impl.SetPhase(0, m, tt.On)
				} else {
					impl.SetPhase(0, m, tt.Off)
				}
			})
			er := mustRate(t)(ErrorRate(spec, impl, 0))
			if er < lo-1e-12 || er > hi+1e-12 {
				t.Fatalf("assignment error rate %v outside bounds [%v,%v]", er, lo, hi)
			}
		}
	}
}

// Assigning every DC minterm to the majority phase of its specified
// neighbors achieves... not necessarily the lower bound (DC neighbors also
// change), but the bound is achieved when DCs are assigned minterm-wise by
// specified-neighbor majority *and* errors only count care→x events. Here
// we verify the min bound is met by that greedy assignment.
func TestMinBoundAchievedByGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 20; trial++ {
		spec := randomFunction(rng, 5, 1)
		lo, _ := Bounds(census.Output(spec, 0))
		impl := spec.Clone()
		spec.Outs[0].DC.ForEach(func(m int) {
			if spec.OnNeighbors(0, m) >= spec.OffNeighbors(0, m) {
				impl.SetPhase(0, m, tt.On)
			} else {
				impl.SetPhase(0, m, tt.Off)
			}
		})
		er := mustRate(t)(ErrorRate(spec, impl, 0))
		if math.Abs(er-lo) > 1e-12 {
			t.Fatalf("greedy assignment rate %v != exact min %v", er, lo)
		}
	}
}

func TestErrorRateNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 10; trial++ {
		spec := randomFunction(rng, 5, 1)
		impl := spec.Clone()
		spec.Outs[0].DC.ForEach(func(m int) {
			impl.SetPhase(0, m, tt.Phase(1+rng.Intn(2)%2))
		})
		got := mustRate(t)(ErrorRate(spec, impl, 0))
		// Naive recount.
		n := spec.NumIn
		errs := 0
		for m := 0; m < spec.Size(); m++ {
			if spec.Phase(0, m) == tt.DC {
				continue
			}
			for b := 0; b < n; b++ {
				v1 := impl.Phase(0, m) == tt.On
				v2 := impl.Phase(0, m^(1<<uint(b))) == tt.On
				if v1 != v2 {
					errs++
				}
			}
		}
		want := float64(errs) / float64(n*spec.Size())
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("ErrorRate = %v, want %v", got, want)
		}
	}
}

func TestErrorRateMean(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	spec := randomFunction(rng, 4, 3)
	impl := spec.Clone()
	for o := 0; o < 3; o++ {
		spec.Outs[o].DC.ForEach(func(m int) { impl.SetPhase(o, m, tt.Off) })
	}
	sum := 0.0
	for o := 0; o < 3; o++ {
		sum += mustRate(t)(ErrorRate(spec, impl, o))
	}
	if got := mustRate(t)(ErrorRateMeanCtx(context.Background(), spec, impl, 0)); math.Abs(got-sum/3) > 1e-12 {
		t.Fatalf("ErrorRateMean = %v, want %v", got, sum/3)
	}
}

// A completely specified function measured against itself (its care
// set is every minterm) has the plain fraction of adjacent minterm pairs
// with differing values as its error rate.
func TestSelfErrorRateXORAndConstant(t *testing.T) {
	n := 4
	xor := tt.New(n, 1)
	for m := 0; m < xor.Size(); m++ {
		if popcount(m)%2 == 1 {
			xor.SetPhase(0, m, tt.On)
		}
	}
	if got := mustRate(t)(ErrorRate(xor, xor, 0)); got != 1.0 {
		t.Fatalf("XOR self error rate = %v, want 1", got)
	}
	constant := tt.New(n, 1)
	if got := mustRate(t)(ErrorRate(constant, constant, 0)); got != 0.0 {
		t.Fatalf("constant self error rate = %v, want 0", got)
	}
}

// Regression: measuring a function against itself used to panic on an
// out-of-range output index; it must return an error instead.
func TestSelfErrorRateInvalidIndexIsError(t *testing.T) {
	f := tt.New(3, 2)
	for _, o := range []int{-1, 2, 100} {
		if _, err := ErrorRate(f, f, o); err == nil {
			t.Fatalf("ErrorRate(f, f, %d): expected error, got nil", o)
		}
	}
}

func TestCountBordersNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 10; trial++ {
		f := randomFunction(rng, 6, 1)
		got := CountBorders(census.Output(f, 0))
		var want Borders
		for m := 0; m < f.Size(); m++ {
			for b := 0; b < f.NumIn; b++ {
				p1 := f.Phase(0, m)
				p2 := f.Phase(0, m^(1<<uint(b)))
				if p1 == p2 {
					continue
				}
				switch p1 {
				case tt.Off:
					want.B0++
				case tt.On:
					want.B1++
				case tt.DC:
					want.BDC++
				}
			}
		}
		if got != want {
			t.Fatalf("borders got %+v want %+v", got, want)
		}
	}
}

// Border identity: every off↔on, off↔dc, on↔dc adjacency is counted once
// from each side, so B0+B1+BDC is even and the base pairs relate as
// BasePairs = B0 + B1 - BDC... no — BasePairs counts only on↔off pairs
// (both directions). Check the weaker consistency: BasePairs ≤ B0 + B1.
func TestBorderConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for trial := 0; trial < 20; trial++ {
		f := randomFunction(rng, 6, 1)
		b := CountBorders(census.Output(f, 0))
		c := ExactCounts(census.Output(f, 0))
		if c.BasePairs > b.B0+b.B1 {
			t.Fatalf("BasePairs %d > B0+B1 %d", c.BasePairs, b.B0+b.B1)
		}
		// (B0+B1+BDC) counts each mixed-phase unordered pair exactly twice.
		if (b.B0+b.B1+b.BDC)%2 != 0 {
			t.Fatalf("border total %d should be even", b.B0+b.B1+b.BDC)
		}
		// on↔off pairs counted from both sides: base = B0+B1-2·(dc-adjacent
		// specified pairs)... direct identity: B0 + B1 - BasePairs equals the
		// number of ordered specified↔DC adjacencies, which equals BDC.
		if b.B0+b.B1-c.BasePairs != b.BDC {
			t.Fatalf("identity B0+B1-Base == BDC violated: %d vs %d",
				b.B0+b.B1-c.BasePairs, b.BDC)
		}
	}
}

func TestErrorRateMultiK1MatchesErrorRate(t *testing.T) {
	rng := rand.New(rand.NewSource(481))
	for trial := 0; trial < 10; trial++ {
		spec := randomFunction(rng, 6, 1)
		impl := spec.Clone()
		spec.Outs[0].DC.ForEach(func(m int) { impl.SetPhase(0, m, tt.Off) })
		a := mustRate(t)(ErrorRate(spec, impl, 0))
		b := mustRate(t)(ErrorRateMulti(context.Background(), spec, impl, 0, 1))
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("k=1 multi rate %v != single rate %v", b, a)
		}
	}
}

func TestErrorRateMultiNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(482))
	spec := randomFunction(rng, 5, 1)
	impl := spec.Clone()
	spec.Outs[0].DC.ForEach(func(m int) { impl.SetPhase(0, m, tt.On) })
	for _, k := range []int{2, 3} {
		got := mustRate(t)(ErrorRateMulti(context.Background(), spec, impl, 0, k))
		// Naive: enumerate all k-subsets and care minterms.
		n := spec.NumIn
		errs, events := 0, 0
		var masks []uint
		forEachSubset(n, k, func(m uint) error { masks = append(masks, m); return nil })
		for _, mask := range masks {
			events++
			for m := 0; m < spec.Size(); m++ {
				if spec.Phase(0, m) == tt.DC {
					continue
				}
				v1 := impl.Phase(0, m) == tt.On
				v2 := impl.Phase(0, m^int(mask)) == tt.On
				if v1 != v2 {
					errs++
				}
			}
		}
		want := float64(errs) / float64(events*spec.Size())
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("k=%d: got %v want %v", k, got, want)
		}
	}
}

func TestErrorRateMultiXOR(t *testing.T) {
	// Parity flips on every odd-multiplicity error and never on even.
	n := 5
	f := tt.New(n, 1)
	for m := 0; m < f.Size(); m++ {
		if popcount(m)%2 == 1 {
			f.SetPhase(0, m, tt.On)
		}
	}
	if got := mustRate(t)(ErrorRateMulti(context.Background(), f, f, 0, 2)); got != 0 {
		t.Fatalf("XOR 2-bit rate = %v, want 0", got)
	}
	if got := mustRate(t)(ErrorRateMulti(context.Background(), f, f, 0, 3)); got != 1 {
		t.Fatalf("XOR 3-bit rate = %v, want 1", got)
	}
}

func TestForEachSubsetCount(t *testing.T) {
	count := 0
	seen := map[uint]bool{}
	forEachSubset(6, 3, func(m uint) error {
		count++
		if popcount(int(m)) != 3 {
			t.Fatalf("mask %b has wrong popcount", m)
		}
		if seen[m] {
			t.Fatalf("duplicate mask %b", m)
		}
		seen[m] = true
		return nil
	})
	if count != 20 { // C(6,3)
		t.Fatalf("enumerated %d subsets, want 20", count)
	}
}

// The public API boundary rejects malformed requests with errors rather
// than panicking (so a serving process survives bad inputs).
func TestErrorRateBoundaryErrors(t *testing.T) {
	a, b := tt.New(3, 1), tt.New(4, 1)
	if _, err := ErrorRate(a, b, 0); err == nil {
		t.Fatal("expected error on input-count mismatch")
	}
	c := tt.New(3, 2)
	if _, err := ErrorRate(a, c, 0); err == nil {
		t.Fatal("expected error on output-count mismatch")
	}
	if _, err := ErrorRate(a, a, 1); err == nil {
		t.Fatal("expected error on out-of-range output index")
	}
	if _, err := ErrorRate(a, a, -1); err == nil {
		t.Fatal("expected error on negative output index")
	}
	if _, err := ErrorRateMeanCtx(context.Background(), a, b, 0); err == nil {
		t.Fatal("expected ErrorRateMean to propagate the mismatch error")
	}
}

func TestErrorRateMultiMultiplicityErrors(t *testing.T) {
	f := tt.New(3, 1)
	for _, k := range []int{0, -1, 4} {
		if _, err := ErrorRateMulti(context.Background(), f, f, 0, k); err == nil {
			t.Fatalf("expected error for multiplicity k=%d", k)
		}
	}
	if _, err := ErrorRateMultiMean(context.Background(), f, tt.New(4, 1), 1); err == nil {
		t.Fatal("expected ErrorRateMultiMean to propagate the mismatch error")
	}
}

// Regression: mean helpers divided by zero outputs and silently returned
// NaN; they must reject zero-output specs with the typed sentinel.
func TestZeroOutputMeansRejected(t *testing.T) {
	f := &tt.Function{NumIn: 3} // hand-built: no outputs
	if _, _, err := BoundsMeanCensusCtx(context.Background(), f, nil, 0); !errors.Is(err, tt.ErrZeroOutputs) {
		t.Fatalf("BoundsMean: got %v, want tt.ErrZeroOutputs", err)
	}
	if _, err := ErrorRateMeanCtx(context.Background(), f, f, 0); !errors.Is(err, tt.ErrZeroOutputs) {
		t.Fatalf("ErrorRateMean: got %v, want tt.ErrZeroOutputs", err)
	}
	if _, err := ErrorRateMultiMean(context.Background(), f, f, 1); !errors.Is(err, tt.ErrZeroOutputs) {
		t.Fatalf("ErrorRateMultiMean: got %v, want tt.ErrZeroOutputs", err)
	}
}

// Regression: ErrorRateMulti used to enumerate all C(n,k) subsets with no
// way to stop; it must now honor context cancellation mid-enumeration.
func TestErrorRateMultiCancellation(t *testing.T) {
	// n=20, k=10 gives C(20,10) = 184756 subsets over a 2^20 space —
	// long enough that a pre-cancelled context must abort well before
	// completion (the first stride poll fires at subset 0).
	f := tt.New(20, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ErrorRateMulti(ctx, f, f, 0, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// And the mean wrapper propagates it unchanged.
	if _, err := ErrorRateMultiMean(ctx, f, f, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("mean: got %v, want context.Canceled", err)
	}
}

// withProcs raises GOMAXPROCS so the parallel path actually runs
// concurrently even on single-core machines.
func withProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// The mean kernels must be bit-identical at every parallelism level:
// per-output results are computed concurrently but summed in output
// order. The bounds also read censuses built at each worker count.
func TestMeansParallelMatchSequential(t *testing.T) {
	withProcs(t, 8)
	rng := rand.New(rand.NewSource(600))
	ctx := context.Background()
	for trial := 0; trial < 5; trial++ {
		spec := randomFunction(rng, 6, 7)
		impl := spec.Clone()
		for o := 0; o < spec.NumOut(); o++ {
			spec.Outs[o].DC.ForEach(func(m int) { impl.SetPhase(o, m, tt.Off) })
		}
		seqLo, seqHi, err := BoundsMeanCensusCtx(ctx, spec, censuses(t, spec, 1), 1)
		if err != nil {
			t.Fatal(err)
		}
		seqER, err := ErrorRateMeanCtx(ctx, spec, impl, 1)
		if err != nil {
			t.Fatal(err)
		}
		seqMulti := 0.0
		for o := 0; o < spec.NumOut(); o++ {
			seqMulti += mustRate(t)(ErrorRateMulti(ctx, spec, impl, o, 2))
		}
		seqMulti /= float64(spec.NumOut())
		multi := mustRate(t)(ErrorRateMultiMean(ctx, spec, impl, 2))
		if multi != seqMulti {
			t.Fatalf("ErrorRateMultiMean %v != sequential %v", multi, seqMulti)
		}
		for _, p := range []int{2, 8, 0} {
			lo, hi, err := BoundsMeanCensusCtx(ctx, spec, censuses(t, spec, p), p)
			if err != nil {
				t.Fatal(err)
			}
			if lo != seqLo || hi != seqHi {
				t.Fatalf("p=%d: BoundsMean (%v,%v) != sequential (%v,%v)", p, lo, hi, seqLo, seqHi)
			}
			er, err := ErrorRateMeanCtx(ctx, spec, impl, p)
			if err != nil {
				t.Fatal(err)
			}
			if er != seqER {
				t.Fatalf("p=%d: ErrorRateMean %v != sequential %v", p, er, seqER)
			}
		}
	}
}

// A census slice that does not belong to f is an error, never read as
// is and never rebuilt: a short slice, a nil entry, or a census of
// another width.
func TestBoundsMeanRejectsForeignCensus(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	f := randomFunction(rng, 5, 3)
	cs := censuses(t, f, 1)
	wide := censuses(t, randomFunction(rng, 6, 3), 1)
	for _, tc := range []struct {
		name string
		cs   []*bitset.Census
	}{
		{"nil", nil},
		{"short", cs[:2]},
		{"nil entry", []*bitset.Census{cs[0], nil, cs[2]}},
		{"other width", []*bitset.Census{cs[0], wide[1], cs[2]}},
	} {
		if _, _, err := BoundsMeanCensusCtx(context.Background(), f, tc.cs, 1); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, _, err := BoundsMeanCensusCtx(context.Background(), f, cs, 1); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkExactCounts12(b *testing.B) {
	rng := rand.New(rand.NewSource(49))
	f := randomFunction(rng, 12, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExactCounts(census.Output(f, 0))
	}
}
