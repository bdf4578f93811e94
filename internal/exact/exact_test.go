package exact

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"relsyn/internal/cube"
	"relsyn/internal/espresso"
	"relsyn/internal/par"
	"relsyn/internal/tt"
)

func randomFunction(rng *rand.Rand, n int, dcFrac float64) *tt.Function {
	f := tt.New(n, 1)
	for m := 0; m < f.Size(); m++ {
		r := rng.Float64()
		switch {
		case r < dcFrac:
			f.SetPhase(0, m, tt.DC)
		case r < dcFrac+(1-dcFrac)/2:
			f.SetPhase(0, m, tt.On)
		}
	}
	return f
}

func isPrime(f *tt.Function, c cube.Cube) bool {
	// c ⊆ on∪dc and no single-literal raise stays within on∪dc.
	within := true
	c.Minterms(func(m uint) {
		if f.Phase(0, int(m)) == tt.Off {
			within = false
		}
	})
	if !within {
		return false
	}
	for v := 0; v < f.NumIn; v++ {
		if c.Val(v) == cube.Full {
			continue
		}
		raised := c.SetVal(v, cube.Full)
		ok := true
		raised.Minterms(func(m uint) {
			if f.Phase(0, int(m)) == tt.Off {
				ok = false
			}
		})
		if ok {
			return false
		}
	}
	return true
}

func TestPrimesAreExactlyThePrimes(t *testing.T) {
	rng := rand.New(rand.NewSource(161))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(5)
		f := randomFunction(rng, n, 0.3)
		primes, err := Primes(f, 0, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, p := range primes {
			if !isPrime(f, p) {
				t.Fatalf("returned cube %s is not prime", p)
			}
			if seen[p.String()] {
				t.Fatalf("duplicate prime %s", p)
			}
			seen[p.String()] = true
		}
		// Completeness: every prime found by brute force must be present.
		// Brute force: enumerate all cubes (3^n) and filter.
		var enumerate func(v int, c cube.Cube)
		enumerate = func(v int, c cube.Cube) {
			if v == n {
				if isPrime(f, c) && !seen[c.String()] {
					t.Fatalf("missing prime %s", c)
				}
				return
			}
			enumerate(v+1, c.SetVal(v, cube.Zero))
			enumerate(v+1, c.SetVal(v, cube.One))
			enumerate(v+1, c)
		}
		if f.Outs[0].On.Any() || f.Outs[0].DC.Any() {
			enumerate(0, cube.New(n))
		}
	}
}

func TestMinimizeKnownExactSizes(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		onset func(m int) bool
		want  int
	}{
		{"xor3", 3, func(m int) bool { return popcount(m)%2 == 1 }, 4},
		{"xor5", 5, func(m int) bool { return popcount(m)%2 == 1 }, 16},
		{"maj3", 3, func(m int) bool { return popcount(m) >= 2 }, 3},
		{"and5", 5, func(m int) bool { return m == 31 }, 1},
		{"const0", 3, func(m int) bool { return false }, 0},
	}
	for _, tc := range cases {
		f := tt.New(tc.n, 1)
		for m := 0; m < f.Size(); m++ {
			if tc.onset(m) {
				f.SetPhase(0, m, tt.On)
			}
		}
		cv, err := Minimize(f, 0, Limits{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if cv.Len() != tc.want {
			t.Errorf("%s: %d cubes, want %d\n%s", tc.name, cv.Len(), tc.want, cv)
		}
		// Validity.
		for m := 0; m < f.Size(); m++ {
			got := cv.ContainsMinterm(uint(m))
			if got != tc.onset(m) {
				t.Errorf("%s: wrong at minterm %d", tc.name, m)
			}
		}
	}
}

func TestMinimizeUsesDCs(t *testing.T) {
	f := tt.New(2, 1)
	f.SetPhase(0, 3, tt.On)
	f.SetPhase(0, 1, tt.DC)
	cv, err := Minimize(f, 0, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if cv.Len() != 1 || cv.Cubes[0].NumLiterals() != 1 {
		t.Fatalf("expected single 1-literal cube, got\n%s", cv)
	}
}

// The headline oracle property: espresso never beats exact, and on small
// random functions it should be close (within a small additive gap).
func TestEspressoCloseToExact(t *testing.T) {
	rng := rand.New(rand.NewSource(162))
	totalExact, totalHeur := 0, 0
	worstGap := 0
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(4)
		f := randomFunction(rng, n, 0.4)
		ex, err := Minimize(f, 0, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		heur := espresso.Minimize(f.OnCover(0), f.DCCover(0))
		if heur.Len() < ex.Len() {
			t.Fatalf("espresso (%d cubes) beat 'exact' (%d) — exact solver is wrong:\n%s",
				heur.Len(), ex.Len(), f.OnCover(0))
		}
		gap := heur.Len() - ex.Len()
		if gap > worstGap {
			worstGap = gap
		}
		totalExact += ex.Len()
		totalHeur += heur.Len()
	}
	if totalHeur > totalExact*115/100 {
		t.Errorf("espresso %d cubes vs exact %d (>15%% average gap)", totalHeur, totalExact)
	}
	t.Logf("espresso %d vs exact %d cubes; worst per-function gap %d",
		totalHeur, totalExact, worstGap)
}

func TestMinimizeLimitErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(163))
	f := randomFunction(rng, 8, 0.5)
	if _, err := Minimize(f, 0, Limits{MaxPrimes: 5}); err == nil {
		t.Fatal("prime limit not enforced")
	}
	if _, err := Minimize(f, 0, Limits{MaxNodes: 3}); err == nil {
		t.Fatal("node limit not enforced")
	}
}

// A function wider than tt.MaxInputs is refused with tt.ErrTooWide.
func TestPrimesRefusesWide(t *testing.T) {
	f := tt.New(tt.MaxInputs+1, 1)
	if _, err := Primes(f, 0, Limits{}); !errors.Is(err, tt.ErrTooWide) {
		t.Fatalf("Primes(n=%d) = %v, want tt.ErrTooWide", f.NumIn, err)
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

func BenchmarkExactMinimize7(b *testing.B) {
	rng := rand.New(rand.NewSource(164))
	f := randomFunction(rng, 7, 0.4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Minimize(f, 0, Limits{}); err != nil {
			b.Fatal(err)
		}
	}
}

// The parallel adjacency merge must produce the exact same (sorted)
// prime list as the sequential path at every parallelism level.
func TestPrimesParallelMatchSequential(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	rng := rand.New(rand.NewSource(77))
	ctx := context.Background()
	for trial := 0; trial < 5; trial++ {
		f := randomFunction(rng, 8, 0.3)
		seq, err := PrimesCtx(ctx, f, 0, Limits{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{2, 8, 0} {
			got, err := PrimesCtx(ctx, f, 0, Limits{Parallelism: p})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(seq) {
				t.Fatalf("p=%d: %d primes != sequential %d", p, len(got), len(seq))
			}
			for i := range got {
				if got[i].String() != seq[i].String() {
					t.Fatalf("p=%d: prime %d = %s != sequential %s", p, i, got[i], seq[i])
				}
			}
		}
	}
}

// A cancelled context aborts prime generation with ctx.Err().
func TestPrimesCancellation(t *testing.T) {
	f := randomFunction(rand.New(rand.NewSource(78)), 8, 0.3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PrimesCtx(ctx, f, 0, Limits{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestPrimesKernelMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	ctx := context.Background()
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(8)
		f := randomFunction(rng, n, 0.3)
		kp, err := primesKernel(ctx, f, 0, Limits{MaxPrimes: 20000, MaxNodes: 1 << 22})
		if err != nil {
			t.Fatal(err)
		}
		sp, err := primesScalar(ctx, f, 0, Limits{MaxPrimes: 20000, MaxNodes: 1 << 22})
		if err != nil {
			t.Fatal(err)
		}
		if len(kp) != len(sp) {
			t.Fatalf("trial %d (n=%d): kernel %d primes, scalar %d", trial, n, len(kp), len(sp))
		}
		for i := range kp {
			if kp[i].String() != sp[i].String() {
				t.Fatalf("trial %d (n=%d): prime %d: kernel %s, scalar %s", trial, n, i, kp[i], sp[i])
			}
		}
	}
}

// mergeResult is the output of one popcount-group adjacency-merge task:
// the implicants produced by merging group pc with group pc+1 and the
// inputs consumed by at least one merge. Tasks write only their own
// slot; the fold into sets happens sequentially in group order, so the
// (sorted) prime list is identical at every parallelism level.
type mergeResult struct {
	merged []implicant
	used   []implicant
}

// primesScalar is the pre-kernel Quine-McCluskey merge, kept as the
// oracle of primesKernel: each level groups implicants by popcount of
// values and merges the per-popcount group pairs (pc, pc+1)
// concurrently — the pairs are independent, so they fan out through
// the shared work pool while the union of their results is folded
// deterministically.
func primesScalar(ctx context.Context, f *tt.Function, o int, lim Limits) ([]cube.Cube, error) {
	n := f.NumIn
	// Level 0: all care-1 minterms (on ∪ dc).
	cur := map[implicant]bool{}
	out := f.Outs[o]
	for m := 0; m < f.Size(); m++ {
		if out.On.Test(m) || out.DC.Test(m) {
			cur[implicant{values: uint32(m)}] = true
		}
	}
	var primes []implicant
	for len(cur) > 0 {
		// Group by popcount of values for the classic adjacency merge.
		groups := map[int][]implicant{}
		for im := range cur {
			groups[bits.OnesCount32(im.values)] = append(groups[bits.OnesCount32(im.values)], im)
		}
		// The (pc, pc+1) group pairs are independent merge tasks; run
		// them concurrently, each writing only results[i]. groups is
		// read-only during the fan-out.
		pcs := make([]int, 0, len(groups))
		for pc := range groups {
			pcs = append(pcs, pc)
		}
		sort.Ints(pcs)
		results := make([]mergeResult, len(pcs))
		err := par.Do(ctx, lim.Parallelism, len(pcs), func(i int) error {
			g, next := groups[pcs[i]], groups[pcs[i]+1]
			var res mergeResult
			for _, a := range g {
				for _, b := range next {
					if a.mask != b.mask {
						continue
					}
					diff := a.values ^ b.values
					if bits.OnesCount32(diff) != 1 {
						continue
					}
					nm := implicant{values: a.values &^ diff, mask: a.mask | diff}
					res.merged = append(res.merged, nm)
					res.used = append(res.used, a, b)
				}
			}
			results[i] = res
			return nil
		})
		if err != nil {
			return nil, err
		}
		merged := map[implicant]bool{}
		used := map[implicant]bool{}
		for _, res := range results {
			for _, im := range res.merged {
				merged[im] = true
			}
			for _, im := range res.used {
				used[im] = true
			}
		}
		for im := range cur {
			if !used[im] {
				primes = append(primes, im)
				if len(primes) > lim.MaxPrimes {
					return nil, fmt.Errorf("exact: more than %d primes", lim.MaxPrimes)
				}
			}
		}
		cur = merged
	}
	return sortedCubes(primes, n, lim)
}
