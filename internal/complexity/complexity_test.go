package complexity

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

func randomFunction(rng *rand.Rand, n, m int) *tt.Function {
	f := tt.New(n, m)
	for o := 0; o < m; o++ {
		for mm := 0; mm < f.Size(); mm++ {
			f.SetPhase(o, mm, tt.Phase(rng.Intn(3)))
		}
	}
	return f
}

// naiveSame is the direct O(n·2^n) reference implementation.
func naiveSame(f *tt.Function, o int) []int {
	same := make([]int, f.Size())
	for m := 0; m < f.Size(); m++ {
		for b := 0; b < f.NumIn; b++ {
			if f.Phase(o, m) == f.Phase(o, m^(1<<uint(b))) {
				same[m]++
			}
		}
	}
	return same
}

// The per-minterm same-phase neighbor counts every C^f and LC^f value
// is built from come from the census; pin them to the double loop.
func TestSamePhaseNeighborsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 2, 3, 5, 6, 7, 9} {
		f := randomFunction(rng, n, 1)
		got := census.Output(f, 0).SamePhaseCounter().Values8()
		want := naiveSame(f, 0)
		for m := range want {
			if int(got[m]) != want[m] {
				t.Fatalf("n=%d minterm %d: got %d want %d", n, m, got[m], want[m])
			}
		}
	}
}

func TestFactorConstantFunction(t *testing.T) {
	// A constant function has complexity factor exactly 1 (paper §2.2).
	f := tt.New(5, 1)
	if got := Factor(census.Output(f, 0)); got != 1.0 {
		t.Fatalf("constant-0 C^f = %v, want 1", got)
	}
	for m := 0; m < 32; m++ {
		f.SetPhase(0, m, tt.On)
	}
	if got := Factor(census.Output(f, 0)); got != 1.0 {
		t.Fatalf("constant-1 C^f = %v, want 1", got)
	}
}

func TestFactorXOR(t *testing.T) {
	// A parity (XOR) function has complexity factor exactly 0: every
	// neighbor differs (paper §2.2).
	n := 6
	f := tt.New(n, 1)
	for m := 0; m < f.Size(); m++ {
		if popcount(m)%2 == 1 {
			f.SetPhase(0, m, tt.On)
		}
	}
	if got := Factor(census.Output(f, 0)); got != 0.0 {
		t.Fatalf("XOR C^f = %v, want 0", got)
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

func TestFactorSingleVariable(t *testing.T) {
	// f = x0 on n=3: neighbors along x0 always differ; along x1, x2 always
	// agree. C^f = 2/3.
	f := tt.New(3, 1)
	for m := 0; m < 8; m++ {
		if m&1 == 1 {
			f.SetPhase(0, m, tt.On)
		}
	}
	if got, want := Factor(census.Output(f, 0)), 2.0/3.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("C^f(x0) = %v, want %v", got, want)
	}
}

func TestFactorRange(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 20; trial++ {
		f := randomFunction(rng, 7, 1)
		c := Factor(census.Output(f, 0))
		if c < 0 || c > 1 {
			t.Fatalf("C^f = %v out of [0,1]", c)
		}
	}
}

func TestExpected(t *testing.T) {
	// Build a function with exact probabilities f0=1/2, f1=1/4, fdc=1/4.
	f := tt.New(4, 1)
	for m := 0; m < 4; m++ {
		f.SetPhase(0, m, tt.On)
	}
	for m := 4; m < 8; m++ {
		f.SetPhase(0, m, tt.DC)
	}
	want := 0.5*0.5 + 0.25*0.25 + 0.25*0.25
	if got := Expected(f, 0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("E[C^f] = %v, want %v", got, want)
	}
}

// For a fully random function, the sample C^f should approach E[C^f].
func TestFactorApproachesExpectedOnRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	f := tt.New(12, 1)
	for m := 0; m < f.Size(); m++ {
		f.SetPhase(0, m, tt.Phase(rng.Intn(3)))
	}
	cf := Factor(census.Output(f, 0))
	ecf := Expected(f, 0)
	if math.Abs(cf-ecf) > 0.02 {
		t.Fatalf("random function: C^f=%v vs E[C^f]=%v differ too much", cf, ecf)
	}
}

func naiveLocal(f *tt.Function, o, m int) float64 {
	n := f.NumIn
	count := 0
	for b := 0; b < n; b++ {
		xj := m ^ (1 << uint(b))
		for b2 := 0; b2 < n; b2++ {
			xk := xj ^ (1 << uint(b2))
			if f.Phase(o, xj) == f.Phase(o, xk) {
				count++
			}
		}
	}
	return float64(count) / float64(n*n)
}

func TestLocalMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	f := randomFunction(rng, 6, 1)
	all := LocalAll(census.Output(f, 0))
	if len(all) != f.Size() {
		t.Fatalf("LocalAll returned %d values, want %d", len(all), f.Size())
	}
	for m := 0; m < f.Size(); m++ {
		want := naiveLocal(f, 0, m)
		if math.Abs(all[m]-want) > 1e-12 {
			t.Fatalf("LC^f(%d) = %v, want %v", m, all[m], want)
		}
	}
}

func TestLocalConstantIsOne(t *testing.T) {
	f := tt.New(4, 1)
	all := LocalAll(census.Output(f, 0))
	for m, v := range all {
		if v != 1.0 {
			t.Fatalf("constant function LC^f(%d) = %v, want 1", m, v)
		}
	}
}

// Mean of LC^f over all minterms relates to C^f: both average same-phase
// neighbor indicators, LC^f just re-weights by the neighborhood. For a
// vertex-transitive uniform function they agree exactly; in general the
// mean LC^f equals mean over minterms of (same-phase count of neighbors)/n,
// which equals C^f because every minterm appears as a neighbor exactly n
// times.
func TestMeanLocalEqualsFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 10; trial++ {
		f := randomFunction(rng, 7, 1)
		all := LocalAll(census.Output(f, 0))
		sum := 0.0
		for _, v := range all {
			sum += v
		}
		mean := sum / float64(len(all))
		cf := Factor(census.Output(f, 0))
		if math.Abs(mean-cf) > 1e-9 {
			t.Fatalf("mean LC^f = %v, C^f = %v", mean, cf)
		}
	}
}

func TestMeans(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	f := randomFunction(rng, 5, 3)
	sum := 0.0
	for o := 0; o < 3; o++ {
		sum += Factor(census.Output(f, o))
	}
	got, err := FactorMean(censuses(t, f, 1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-sum/3) > 1e-12 {
		t.Fatalf("FactorMean = %v, want %v", got, sum/3)
	}
	sum = 0.0
	for o := 0; o < 3; o++ {
		sum += Expected(f, o)
	}
	got, err = ExpectedMean(f)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-sum/3) > 1e-12 {
		t.Fatalf("ExpectedMean = %v, want %v", got, sum/3)
	}
}

// Regression: the mean helpers silently returned NaN on zero-output
// functions; they must now reject them with the typed sentinel.
func TestMeansZeroOutputsRejected(t *testing.T) {
	f := &tt.Function{NumIn: 4} // hand-built: no outputs
	if _, err := FactorMean(nil); !errors.Is(err, tt.ErrZeroOutputs) {
		t.Fatalf("FactorMean: got %v, want tt.ErrZeroOutputs", err)
	}
	if _, err := ExpectedMean(f); !errors.Is(err, tt.ErrZeroOutputs) {
		t.Fatalf("ExpectedMean: got %v, want tt.ErrZeroOutputs", err)
	}
}

// censuses builds f's per-output censuses at the given worker count.
func censuses(t *testing.T, f *tt.Function, parallelism int) []*bitset.Census {
	t.Helper()
	fc, err := census.Compute(context.Background(), f, parallelism)
	if err != nil {
		t.Fatal(err)
	}
	return fc.Outs
}

// C^f and LC^f must be bit-identical whatever worker count built the
// censuses they read.
func TestParallelMatchesSequential(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3; trial++ {
		f := randomFunction(rng, 7, 5)
		seq := censuses(t, f, 1)
		seqMean, err := FactorMean(seq)
		if err != nil {
			t.Fatal(err)
		}
		seqLocal := LocalAll(seq[0])
		for _, p := range []int{2, 8, 0} {
			cs := censuses(t, f, p)
			mean, err := FactorMean(cs)
			if err != nil {
				t.Fatal(err)
			}
			if mean != seqMean {
				t.Fatalf("p=%d: FactorMean %v != sequential %v", p, mean, seqMean)
			}
			local := LocalAll(cs[0])
			for m := range local {
				if local[m] != seqLocal[m] {
					t.Fatalf("p=%d: LocalAll[%d] %v != sequential %v", p, m, local[m], seqLocal[m])
				}
			}
		}
	}
}

// FactorMean has no function to check its censuses against, but a nil
// entry or censuses of two minterm spaces cannot be one function's.
func TestFactorMeanRejectsForeignCensus(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	cs := censuses(t, randomFunction(rng, 5, 3), 1)
	wide := censuses(t, randomFunction(rng, 6, 3), 1)
	for _, tc := range []struct {
		name string
		cs   []*bitset.Census
	}{
		{"nil entry", []*bitset.Census{cs[0], nil, cs[2]}},
		{"other width", []*bitset.Census{cs[0], wide[1], cs[2]}},
	} {
		if _, err := FactorMean(tc.cs); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func BenchmarkFactor12(b *testing.B) {
	rng := rand.New(rand.NewSource(37))
	f := randomFunction(rng, 12, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Factor(census.Output(f, 0))
	}
}

func BenchmarkLocalAll12(b *testing.B) {
	rng := rand.New(rand.NewSource(38))
	f := randomFunction(rng, 12, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LocalAll(census.Output(f, 0))
	}
}
