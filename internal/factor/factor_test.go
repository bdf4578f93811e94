package factor

import (
	"math/rand"
	"testing"

	"relsyn/internal/cube"
	"relsyn/internal/espresso"
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

func equivalent(e *Expr, cv *cube.Cover) bool {
	for m := uint(0); m < 1<<uint(cv.NumVars()); m++ {
		if e.Eval(m) != cv.ContainsMinterm(m) {
			return false
		}
	}
	return true
}

func TestExprBasics(t *testing.T) {
	// (x0 ∧ ¬x1) ∨ x2
	e := NewOr(NewAnd(NewLit(0, false), NewLit(1, true)), NewLit(2, false))
	want := func(m uint) bool {
		x0 := m&1 == 1
		x1 := m>>1&1 == 1
		x2 := m>>2&1 == 1
		return (x0 && !x1) || x2
	}
	for m := uint(0); m < 8; m++ {
		if e.Eval(m) != want(m) {
			t.Fatalf("Eval(%03b) wrong", m)
		}
	}
	if e.NumLiterals() != 3 {
		t.Fatalf("NumLiterals = %d, want 3", e.NumLiterals())
	}
}

func TestNaryConstruction(t *testing.T) {
	// Identity and absorbing elements.
	if NewAnd().Kind != Const1 {
		t.Fatal("empty And should be 1")
	}
	if NewOr().Kind != Const0 {
		t.Fatal("empty Or should be 0")
	}
	if NewAnd(NewLit(0, false), NewConst(false)).Kind != Const0 {
		t.Fatal("And with 0 should be 0")
	}
	if NewOr(NewLit(0, false), NewConst(true)).Kind != Const1 {
		t.Fatal("Or with 1 should be 1")
	}
	// Flattening.
	e := NewAnd(NewAnd(NewLit(0, false), NewLit(1, false)), NewLit(2, false))
	if e.Kind != And || len(e.Args) != 3 {
		t.Fatalf("nested And not flattened: %s", e)
	}
	// Single argument collapses.
	if e := NewOr(NewLit(3, true)); e.Kind != Lit || e.Var != 3 {
		t.Fatal("single-arg Or should collapse to the literal")
	}
}

func TestExprString(t *testing.T) {
	e := NewOr(NewAnd(NewLit(0, false), NewLit(1, true)), NewLit(2, false))
	if got := e.String(); got != "x0 x1' + x2" {
		t.Fatalf("String = %q", got)
	}
}

func TestDivideByLiteralCover(t *testing.T) {
	// f = abc + abd + e ; divide by ab -> q = c + d, r = e.
	// Vars: a=0 b=1 c=2 d=3 e=4.
	f := coverFrom(t, 5, "111--", "11-1-", "----1")
	d := coverFrom(t, 5, "11---")
	q, r := Divide(f, d)
	if q.Len() != 2 || r.Len() != 1 {
		t.Fatalf("q=%d cubes r=%d cubes, want 2 and 1\nq:\n%s\nr:\n%s", q.Len(), r.Len(), q, r)
	}
	wantQ := map[string]bool{"--1--": true, "---1-": true}
	for _, c := range q.Cubes {
		if !wantQ[c.String()] {
			t.Fatalf("unexpected quotient cube %s", c)
		}
	}
	if r.Cubes[0].String() != "----1" {
		t.Fatalf("remainder = %s, want ----1", r.Cubes[0])
	}
}

func TestDivideByMultiCubeDivisor(t *testing.T) {
	// f = ac + ad + bc + bd + e ; d = a + b -> q = c + d, r = e.
	// Vars: a=0 b=1 c=2 d=3 e=4.
	f := coverFrom(t, 5, "1-1--", "1--1-", "-11--", "-1-1-", "----1")
	d := coverFrom(t, 5, "1----", "-1---")
	q, r := Divide(f, d)
	if q.Len() != 2 || r.Len() != 1 {
		t.Fatalf("q=%d r=%d, want 2 and 1", q.Len(), r.Len())
	}
}

func TestDivideNoCommon(t *testing.T) {
	f := coverFrom(t, 3, "1--", "-1-")
	d := coverFrom(t, 3, "--1")
	q, r := Divide(f, d)
	if q.Len() != 0 || r.Len() != 2 {
		t.Fatalf("q=%d r=%d, want 0 and 2", q.Len(), r.Len())
	}
}

// Algebraic identity: f == q·d + r for random covers and divisors.
func TestDivideIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 100; trial++ {
		n := 3 + rng.Intn(4)
		f := randomSparseCover(rng, n, 2+rng.Intn(8))
		d := randomSparseCover(rng, n, 1+rng.Intn(3))
		q, r := Divide(f, d)
		// Rebuild q·d + r and compare cube sets with f.
		rebuilt := map[string]bool{}
		for _, qc := range q.Cubes {
			for _, dc := range d.Cubes {
				m, ok := qc.Intersect(dc)
				if !ok {
					t.Fatal("algebraic product cube conflict")
				}
				rebuilt[m.String()] = true
			}
		}
		for _, c := range r.Cubes {
			rebuilt[c.String()] = true
		}
		orig := map[string]bool{}
		for _, c := range f.Cubes {
			orig[c.String()] = true
		}
		// Every rebuilt cube must be an original cube and vice versa.
		for k := range rebuilt {
			if !orig[k] {
				t.Fatalf("rebuilt cube %s not in f", k)
			}
		}
		for k := range orig {
			if !rebuilt[k] {
				t.Fatalf("original cube %s lost", k)
			}
		}
	}
}

func randomSparseCover(rng *rand.Rand, n, k int) *cube.Cover {
	cv := cube.NewCover(n)
	for i := 0; i < k; i++ {
		c := cube.New(n)
		lits := 1 + rng.Intn(n)
		for j := 0; j < lits; j++ {
			v := rng.Intn(n)
			if rng.Intn(2) == 0 {
				c = c.SetVal(v, cube.One)
			} else {
				c = c.SetVal(v, cube.Zero)
			}
		}
		cv.Add(c)
	}
	removeContained(cv)
	return cv
}

func TestKernelsTextbookExample(t *testing.T) {
	// f = adf + aef + bdf + bef + cdf + cef + g (textbook kernel example)
	// Vars: a..g = 0..6. Kernels include (a+b+c), (d+e), and the full
	// cube-free f itself: (a+b+c)(d+e)f + g.
	f := coverFrom(t, 7,
		"1--1-1-", // adf
		"1---11-", // aef
		"-1-1-1-", // bdf
		"-1--11-", // bef
		"--11-1-", // cdf
		"--1-11-", // cef
		"------1", // g
	)
	kernels := Kernels(f, 0)
	found := map[string]bool{}
	for _, k := range kernels {
		found[k.String()] = true
	}
	// (d+e) as cover string (sorted): cubes ---1--- and ----1--.
	de := coverFrom(t, 7, "---1---", "----1--")
	de.Sort()
	abc := coverFrom(t, 7, "1------", "-1-----", "--1----")
	abc.Sort()
	if !found[de.String()] {
		t.Errorf("kernel d+e not found; kernels:\n%v", found)
	}
	if !found[abc.String()] {
		t.Errorf("kernel a+b+c not found; kernels:\n%v", found)
	}
}

func TestKernelsCubeFreeOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 30; trial++ {
		f := randomSparseCover(rng, 6, 2+rng.Intn(6))
		for _, k := range Kernels(f, 0) {
			if !oracleIsCubeFree(k) {
				t.Fatalf("non-cube-free kernel:\n%s", k)
			}
			if k.Len() < 2 {
				t.Fatalf("kernel with fewer than 2 cubes:\n%s", k)
			}
		}
	}
}

func TestKernelsLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	f := randomSparseCover(rng, 8, 12)
	all := Kernels(f, 0)
	if len(all) > 3 {
		limited := Kernels(f, 3)
		if len(limited) != 3 {
			t.Fatalf("limit ignored: got %d kernels", len(limited))
		}
	}
}

func TestGoodFactorEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(6)
		f := randomSparseCover(rng, n, 1+rng.Intn(10))
		e := GoodFactor(f)
		if !equivalent(e, f) {
			t.Fatalf("factored expression differs from cover\ncover:\n%s\nexpr: %s", f, e)
		}
	}
}

func TestGoodFactorSavesLiterals(t *testing.T) {
	// ab + ac + ad -> a(b+c+d): 6 literals down to 4.
	f := coverFrom(t, 4, "11--", "1-1-", "1--1")
	e := GoodFactor(f)
	if !equivalent(e, f) {
		t.Fatal("factored expression wrong")
	}
	if e.NumLiterals() > 4 {
		t.Fatalf("factoring saved nothing: %s (%d literals)", e, e.NumLiterals())
	}
}

func TestGoodFactorKernelCase(t *testing.T) {
	// (a+b)(c+d) + e: flat SOP has 9 literals, factored 5.
	f := coverFrom(t, 5, "1-1--", "1--1-", "-11--", "-1-1-", "----1")
	e := GoodFactor(f)
	if !equivalent(e, f) {
		t.Fatal("factored expression wrong")
	}
	if e.NumLiterals() > 5 {
		t.Fatalf("kernel factoring missed: %s (%d literals)", e, e.NumLiterals())
	}
}

func TestGoodFactorEdgeCases(t *testing.T) {
	if GoodFactor(cube.NewCover(3)).Kind != Const0 {
		t.Fatal("empty cover should factor to 0")
	}
	f := coverFrom(t, 3, "---")
	if GoodFactor(f).Kind != Const1 {
		t.Fatal("universe cover should factor to 1")
	}
	single := coverFrom(t, 3, "01-")
	e := GoodFactor(single)
	if !equivalent(e, single) || e.NumLiterals() != 2 {
		t.Fatalf("single cube factored wrong: %s", e)
	}
}

// End-to-end: minimize a random incompletely specified function, factor
// the result, and check the factored form is consistent with the spec.
func TestMinimizeThenFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(4)
		f := tt.New(n, 1)
		for m := 0; m < f.Size(); m++ {
			f.SetPhase(0, m, tt.Phase(rng.Intn(3)))
		}
		cov := espresso.Minimize(f.OnCover(0), f.DCCover(0))
		e := GoodFactor(cov)
		for m := uint(0); m < uint(f.Size()); m++ {
			switch f.Phase(0, int(m)) {
			case tt.On:
				if !e.Eval(m) {
					t.Fatalf("factored form misses on-set minterm %d", m)
				}
			case tt.Off:
				if e.Eval(m) {
					t.Fatalf("factored form covers off-set minterm %d", m)
				}
			}
		}
		if e.NumLiterals() > cov.LiteralCount() {
			t.Fatalf("factoring increased literal count: %d > %d",
				e.NumLiterals(), cov.LiteralCount())
		}
	}
}

func BenchmarkGoodFactor(b *testing.B) {
	rng := rand.New(rand.NewSource(86))
	f := randomSparseCover(rng, 10, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GoodFactor(f)
	}
}
