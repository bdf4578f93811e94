package espresso

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"relsyn/internal/benchmarks"
	"relsyn/internal/bitset"
	"relsyn/internal/cube"
	"relsyn/internal/tt"
)

func mustParse(t *testing.T, s string) cube.Cube {
	t.Helper()
	c, err := cube.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func coverFrom(t *testing.T, n int, cubes ...string) *cube.Cover {
	t.Helper()
	cv := cube.NewCover(n)
	for _, s := range cubes {
		cv.Add(mustParse(t, s))
	}
	return cv
}

// bitsOf evaluates a cover exhaustively.
func bitsOf(cv *cube.Cover) []bool {
	out := make([]bool, 1<<uint(cv.NumVars()))
	for m := range out {
		out[m] = cv.ContainsMinterm(uint(m))
	}
	return out
}

func randomCover(rng *rand.Rand, n, k int) *cube.Cover {
	cv := cube.NewCover(n)
	for i := 0; i < k; i++ {
		c := cube.New(n)
		for v := 0; v < n; v++ {
			switch rng.Intn(3) {
			case 0:
				c = c.SetVal(v, cube.Zero)
			case 1:
				c = c.SetVal(v, cube.One)
			}
		}
		cv.Add(c)
	}
	return cv
}

// isUniverse reports whether cv is the single universe cube: the dense
// engine's answer exactly when on ∪ dc is a tautology.
func isUniverse(cv *cube.Cover) bool {
	return cv.Len() == 1 && cv.Cubes[0].NumLiterals() == 0
}

func TestTautologyBasics(t *testing.T) {
	// x + x̄ is a tautology.
	if !isUniverse(Minimize(coverFrom(t, 1, "0", "1"), nil)) {
		t.Fatal("x + x̄ should minimize to the universe")
	}
	if isUniverse(Minimize(coverFrom(t, 1, "0"), nil)) {
		t.Fatal("x̄ alone is not a tautology")
	}
	if !isUniverse(Minimize(coverFrom(t, 3, "---"), nil)) {
		t.Fatal("universe cube is a tautology")
	}
	// Shannon expansion of 1 over two vars.
	if !isUniverse(Minimize(coverFrom(t, 2, "0-", "11", "10"), nil)) {
		t.Fatal("complete cover should minimize to the universe")
	}
	if isUniverse(Minimize(coverFrom(t, 2, "0-", "11"), nil)) {
		t.Fatal("cover missing minterm 10 minimized to the universe")
	}
	// The don't-cares complete the space: on ∪ dc is a tautology.
	if !isUniverse(Minimize(coverFrom(t, 2, "0-"), coverFrom(t, 2, "1-"))) {
		t.Fatal("on ∪ dc covering the space should minimize to the universe")
	}
}

// The engine returns the universe cube exactly when on ∪ dc covers
// every minterm.
func TestTautologyMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(6)
		// Mix sparse and dense covers; dense ones are often tautologies.
		on := randomCover(rng, n, 1+rng.Intn(10))
		dc := randomCover(rng, n, rng.Intn(3))
		want := true
		for m, b := range bitsOf(on) {
			if !b && !dc.ContainsMinterm(uint(m)) {
				want = false
				break
			}
		}
		if got := isUniverse(Minimize(on, dc)); got != want {
			t.Fatalf("n=%d on:\n%s\ndc:\n%s\nuniverse=%v, want %v", n, on, dc, got, want)
		}
	}
}

func checkMinimized(t *testing.T, name string, impl, on, dc *cube.Cover) {
	t.Helper()
	n := on.NumVars()
	onB, dcB, implB := bitsOf(on), bitsOf(dc), bitsOf(impl)
	for m := 0; m < 1<<uint(n); m++ {
		if onB[m] && !implB[m] {
			t.Fatalf("%s: on-set minterm %d not covered", name, m)
		}
		if implB[m] && !onB[m] && !dcB[m] {
			t.Fatalf("%s: off-set minterm %d covered", name, m)
		}
	}
	// Primality: raising any literal of any cube must hit the off-set.
	for ci, c := range impl.Cubes {
		for v := 0; v < n; v++ {
			if c.Val(v) == cube.Full {
				continue
			}
			raised := c.SetVal(v, cube.Full)
			hitsOff := false
			raised.Minterms(func(m uint) {
				if !onB[m] && !dcB[m] {
					hitsOff = true
				}
			})
			if !hitsOff {
				t.Fatalf("%s: cube %d (%s) is not prime (var %d raisable)", name, ci, c, v)
			}
		}
	}
	// Irredundancy: no cube removable.
	for ci := range impl.Cubes {
		rest := cube.NewCover(n)
		for j, o := range impl.Cubes {
			if j != ci {
				rest.Add(o)
			}
		}
		restB := bitsOf(rest)
		removable := true
		for m := 0; m < 1<<uint(n); m++ {
			if onB[m] && implB[m] && !restB[m] {
				// This on-set minterm is covered only via cube ci... unless
				// another cube covers it; restB says not.
				if impl.Cubes[ci].ContainsMinterm(uint(m)) {
					removable = false
					break
				}
			}
		}
		if removable {
			t.Fatalf("%s: cube %d (%s) is redundant", name, ci, impl.Cubes[ci])
		}
	}
}

// denseOf runs the dense engine seeded from the on cover, as
// MinimizeInterruptible does.
func denseOf(on, dc *cube.Cover) *cube.Cover {
	n := on.NumVars()
	return minimizeDense(n, coverSet(n, on), coverSet(n, dc), on, nil)
}

// Both entry points — MinimizeInterruptible, seeded from the on cover,
// and MinimizeSets, seeded from the on-set's minterms — return valid
// irredundant prime covers.
func TestMinimizeRandomBothEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(6)
		f := tt.New(n, 1)
		for m := 0; m < f.Size(); m++ {
			f.SetPhase(0, m, tt.Phase(rng.Intn(3)))
		}
		on, dc := f.OnCover(0), f.DCCover(0)
		covers, err := MinimizeInterruptible(on, dc, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkMinimized(t, "covers", covers, on, dc)
		sets, err := MinimizeSets(n, f.Outs[0].On, f.Outs[0].DC, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkMinimized(t, "sets", sets, on, dc)
	}
}

// Functions wider than tt.MaxInputs are refused with tt.ErrTooWide by
// both entry points, with or without a poll, and never panic.
func TestMinimizeRefusesWide(t *testing.T) {
	n := tt.MaxInputs + 1
	on := cube.CoverOf(n, cube.New(n).SetVal(0, cube.One))
	for _, poll := range []func() error{nil, func() error { return nil }} {
		if _, err := MinimizeInterruptible(on, nil, poll); !errors.Is(err, tt.ErrTooWide) {
			t.Fatalf("MinimizeInterruptible(n=%d) = %v, want tt.ErrTooWide", n, err)
		}
		set := bitset.New(1 << uint(n))
		set.Set(1)
		if _, err := MinimizeSets(n, set, nil, poll); !errors.Is(err, tt.ErrTooWide) {
			t.Fatalf("MinimizeSets(n=%d) = %v, want tt.ErrTooWide", n, err)
		}
	}
}

func TestMinimizeKnownSizes(t *testing.T) {
	// Minimal SOP sizes that any competent minimizer must reach.
	cases := []struct {
		name  string
		n     int
		onset func(m int) bool
		want  int // exact minimal cube count
	}{
		{"xor3", 3, func(m int) bool { return popcount(m)%2 == 1 }, 4},
		{"xor4", 4, func(m int) bool { return popcount(m)%2 == 1 }, 8},
		{"and4", 4, func(m int) bool { return m == 15 }, 1},
		{"or4-as-minterms", 4, func(m int) bool { return m != 0 }, 4},
		{"maj3", 3, func(m int) bool { return popcount(m) >= 2 }, 3},
	}
	for _, tc := range cases {
		f := tt.New(tc.n, 1)
		for m := 0; m < f.Size(); m++ {
			if tc.onset(m) {
				f.SetPhase(0, m, tt.On)
			}
		}
		impl := Minimize(f.OnCover(0), nil)
		checkMinimized(t, tc.name, impl, f.OnCover(0), cube.NewCover(tc.n))
		if impl.Len() != tc.want {
			t.Errorf("%s: got %d cubes, want %d\n%s", tc.name, impl.Len(), tc.want, impl)
		}
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

func TestMinimizeUsesDontCares(t *testing.T) {
	// f on {11}, dc {10, 01}: minimal cover with DCs is a single literal
	// cube; without them it is the single minterm.
	f := tt.New(2, 1)
	f.SetPhase(0, 3, tt.On)
	f.SetPhase(0, 1, tt.DC)
	f.SetPhase(0, 2, tt.DC)
	withDC := Minimize(f.OnCover(0), f.DCCover(0))
	if withDC.Len() != 1 || withDC.Cubes[0].NumLiterals() != 1 {
		t.Fatalf("DC-aware minimization should give one 1-literal cube, got\n%s", withDC)
	}
	without := Minimize(f.OnCover(0), nil)
	if without.Len() != 1 || without.Cubes[0].NumLiterals() != 2 {
		t.Fatalf("DC-free minimization should keep the minterm, got\n%s", without)
	}
}

func TestMinimizeConstants(t *testing.T) {
	// Empty on-set -> empty cover.
	if got := Minimize(cube.NewCover(3), nil); got.Len() != 0 {
		t.Fatal("constant 0 should minimize to empty cover")
	}
	// Full on-set -> single universe cube.
	f := tt.New(3, 1)
	for m := 0; m < 8; m++ {
		f.SetPhase(0, m, tt.On)
	}
	got := Minimize(f.OnCover(0), nil)
	if got.Len() != 1 || got.Cubes[0].NumLiterals() != 0 {
		t.Fatalf("constant 1 should minimize to the universe cube, got\n%s", got)
	}
	// On-set empty but DC-full: prefer the empty cover.
	g := tt.New(3, 1)
	for m := 0; m < 8; m++ {
		g.SetPhase(0, m, tt.DC)
	}
	if got := Minimize(g.OnCover(0), g.DCCover(0)); got.Len() != 0 {
		t.Fatalf("all-DC with empty on-set should give empty cover, got\n%s", got)
	}
}

func TestMinimizeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	f := tt.New(7, 1)
	for m := 0; m < f.Size(); m++ {
		f.SetPhase(0, m, tt.Phase(rng.Intn(3)))
	}
	a := Minimize(f.OnCover(0), f.DCCover(0))
	b := Minimize(f.OnCover(0), f.DCCover(0))
	if a.String() != b.String() {
		t.Fatal("Minimize is not deterministic")
	}
}

// The dense EXPAND raises the minterms of x0 to the one prime 1--.
func TestExpandProducesPrimes(t *testing.T) {
	f := tt.New(3, 1)
	for m := 0; m < 8; m++ {
		if m&1 == 1 {
			f.SetPhase(0, m, tt.On)
		}
	}
	ctx := newDenseCtx(3, f.Outs[0].On, f.OffSet(0), nil)
	exp := ctx.expand(f.OnCover(0), 0)
	if exp.Len() != 1 || exp.Cubes[0].String() != "1--" {
		t.Fatalf("expand of x0 minterms = %s, want single cube 1--", exp)
	}
}

// containedPair returns a pair i ≠ j of cv's cubes with cube i inside
// cube j, or ok false when there is none.
func containedPair(cv *cube.Cover) (i, j int, ok bool) {
	for i, c := range cv.Cubes {
		for j, d := range cv.Cubes {
			if i != j && d.Contains(c) {
				return i, j, true
			}
		}
	}
	return 0, 0, false
}

// expand emits no cube inside another, which is why it runs no
// containment cleanup: every output cube is a prime of on∪dc, and a
// cube equal to an earlier prime is skipped as already covered. Pinned
// for all three raise orders, from minterm seeds and from reduced
// covers, on seeded functions and on every output of the suite specs.
// The on-set walk MinimizeSets expands first must equal expand of the
// minterm seed, cube for cube.
func TestExpandOutputHasNoContainedPair(t *testing.T) {
	check := func(name string, n int, on, dc *bitset.Set) {
		t.Helper()
		off := on.Clone()
		if dc != nil {
			off.InPlaceUnion(dc)
		}
		off = off.Complement()
		if on.None() || off.None() {
			return
		}
		ctx := newDenseCtx(n, on, off, nil)
		seed := mintermCover(n, on)
		if got, want := ctx.expandOnSet(), ctx.expand(seed, 0); !sameCover(got, want) {
			t.Fatalf("%s: on-set walk\n%s\nexpand of the minterm seed\n%s", name, got, want)
		}
		reduced := ctx.reduce(ctx.irredundant(ctx.expand(seed, 0)))
		for variant := 0; variant <= 2; variant++ {
			for _, in := range []*cube.Cover{seed, reduced} {
				out := ctx.expand(in, variant)
				if i, j, ok := containedPair(out); ok {
					t.Fatalf("%s variant %d: expand emitted %s inside %s", name, variant, out.Cubes[i], out.Cubes[j])
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(2602))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(10)
		on, dc := randomSets(rng, n)
		check(fmt.Sprintf("sets trial %d", trial), n, on, dc)
		onCov, dcCov := randomCover(rng, n, 1+rng.Intn(3*n)), randomCover(rng, n, rng.Intn(2*n))
		check(fmt.Sprintf("covers trial %d", trial), n, coverSet(n, onCov), coverSet(n, dcCov))
	}
	for _, spec := range benchmarks.Specs() {
		f, err := benchmarks.Load(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		for o := range f.Outs {
			check(fmt.Sprintf("%s output %d", spec.Name, o), f.NumIn, f.Outs[o].On, f.Outs[o].DC)
		}
	}
}

func TestReduceExpandEscapesLocalMinimum(t *testing.T) {
	// Classic case where the first irredundant cover is not minimum and a
	// reduce/expand pass improves it — at minimum, the loop must never
	// worsen cost and must stay valid.
	rng := rand.New(rand.NewSource(65))
	for trial := 0; trial < 20; trial++ {
		n := 5
		f := tt.New(n, 1)
		for m := 0; m < f.Size(); m++ {
			if rng.Intn(2) == 0 {
				f.SetPhase(0, m, tt.On)
			}
		}
		on := f.OnCover(0)
		first := denseOf(on, cube.NewCover(n))
		checkMinimized(t, "loop", first, on, cube.NewCover(n))
	}
}

func BenchmarkMinimizeDense10(b *testing.B) {
	rng := rand.New(rand.NewSource(66))
	f := tt.New(10, 1)
	for m := 0; m < f.Size(); m++ {
		f.SetPhase(0, m, tt.Phase(rng.Intn(3)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MinimizeSets(10, f.Outs[0].On, f.Outs[0].DC, nil); err != nil {
			b.Fatal(err)
		}
	}
}
