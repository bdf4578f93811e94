package aig

import (
	"math/rand"
	"testing"

	"relsyn/internal/cube"
	"relsyn/internal/espresso"
	"relsyn/internal/factor"
	"relsyn/internal/tt"
)

func TestConstAndTrivialRules(t *testing.T) {
	g := New(2)
	a, b := g.PI(0), g.PI(1)
	if g.And(ConstFalse, a) != ConstFalse {
		t.Fatal("0∧a should be 0")
	}
	if g.And(ConstTrue, a) != a {
		t.Fatal("1∧a should be a")
	}
	if g.And(a, a) != a {
		t.Fatal("a∧a should be a")
	}
	if g.And(a, a.Not()) != ConstFalse {
		t.Fatal("a∧¬a should be 0")
	}
	x := g.And(a, b)
	y := g.And(b, a)
	if x != y {
		t.Fatal("strashing failed for commuted operands")
	}
	if g.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d, want 1", g.NumNodes())
	}
}

func TestLitHelpers(t *testing.T) {
	l := MakeLit(5, true)
	if l.Node() != 5 || !l.Compl() {
		t.Fatal("MakeLit round trip broken")
	}
	if l.Not().Compl() || l.Not().Node() != 5 {
		t.Fatal("Not broken")
	}
}

func TestEvalGates(t *testing.T) {
	g := New(2)
	a, b := g.PI(0), g.PI(1)
	g.AddPO(g.And(a, b))
	g.AddPO(g.Or(a, b))
	g.AddPO(g.Xor(a, b))
	g.AddPO(g.Mux(a, b, b.Not()))
	for m := uint(0); m < 4; m++ {
		av := m&1 == 1
		bv := m>>1&1 == 1
		out := g.Eval(m)
		if out[0] != (av && bv) || out[1] != (av || bv) || out[2] != (av != bv) {
			t.Fatalf("gate eval wrong at %02b: %v", m, out)
		}
		wantMux := bv
		if !av {
			wantMux = !bv
		}
		if out[3] != wantMux {
			t.Fatalf("mux eval wrong at %02b", m)
		}
	}
}

func TestTruthTableMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	g := randomGraph(rng, 6, 40, 3)
	for o := 0; o < g.NumPO(); o++ {
		table := g.TruthTable(o)
		for m := uint(0); m < 64; m++ {
			if table.Test(int(m)) != g.Eval(m)[o] {
				t.Fatalf("PO %d truth table disagrees with Eval at %d", o, m)
			}
		}
	}
}

func randomGraph(rng *rand.Rand, numPI, ands, pos int) *Graph {
	g := New(numPI)
	lits := []Lit{ConstTrue}
	for i := 0; i < numPI; i++ {
		lits = append(lits, g.PI(i))
	}
	for i := 0; i < ands; i++ {
		a := lits[rng.Intn(len(lits))]
		b := lits[rng.Intn(len(lits))]
		if rng.Intn(2) == 0 {
			a = a.Not()
		}
		if rng.Intn(2) == 0 {
			b = b.Not()
		}
		lits = append(lits, g.And(a, b))
	}
	for i := 0; i < pos; i++ {
		l := lits[rng.Intn(len(lits))]
		if rng.Intn(2) == 0 {
			l = l.Not()
		}
		g.AddPO(l)
	}
	return g
}

func graphsEquivalent(a, b *Graph) bool {
	if a.NumPI() != b.NumPI() || a.NumPO() != b.NumPO() {
		return false
	}
	for m := uint(0); m < 1<<uint(a.NumPI()); m++ {
		ea, eb := a.Eval(m), b.Eval(m)
		for i := range ea {
			if ea[i] != eb[i] {
				return false
			}
		}
	}
	return true
}

func TestCleanupPreservesFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 5, 30, 4)
		c := g.Cleanup()
		if !graphsEquivalent(g, c) {
			t.Fatal("Cleanup changed function")
		}
		if c.NumNodes() > g.NumNodes() {
			t.Fatal("Cleanup grew the graph")
		}
	}
}

func TestCleanupRemovesDangling(t *testing.T) {
	g := New(3)
	a, b, c := g.PI(0), g.PI(1), g.PI(2)
	used := g.And(a, b)
	g.And(b, c) // dangling
	g.And(a, c) // dangling
	g.AddPO(used)
	clean := g.Cleanup()
	if clean.NumNodes() != 1 {
		t.Fatalf("Cleanup left %d nodes, want 1", clean.NumNodes())
	}
}

func TestBalancePreservesFunctionAndReducesDepth(t *testing.T) {
	// Long AND chain: depth n-1 unbalanced, ⌈log2 n⌉ balanced.
	g := New(8)
	acc := g.PI(0)
	for i := 1; i < 8; i++ {
		acc = g.And(acc, g.PI(i))
	}
	g.AddPO(acc)
	if g.Depth() != 7 {
		t.Fatalf("chain depth = %d, want 7", g.Depth())
	}
	b := g.Balance()
	if !graphsEquivalent(g, b) {
		t.Fatal("Balance changed function")
	}
	if b.Depth() != 3 {
		t.Fatalf("balanced depth = %d, want 3", b.Depth())
	}
}

func TestBalanceRandomEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(rng, 5, 40, 3)
		b := g.Balance()
		if !graphsEquivalent(g, b) {
			t.Fatalf("trial %d: Balance changed function", trial)
		}
		if b.Depth() > g.Depth() {
			t.Fatalf("trial %d: Balance increased depth %d -> %d", trial, g.Depth(), b.Depth())
		}
	}
}

func TestFromExprEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(5)
		f := tt.New(n, 1)
		for m := 0; m < f.Size(); m++ {
			if rng.Intn(2) == 0 {
				f.SetPhase(0, m, tt.On)
			}
		}
		cov := espresso.Minimize(f.OnCover(0), nil)
		e := factor.GoodFactor(cov)
		g := New(n)
		g.AddPO(g.FromExpr(e))
		for m := uint(0); m < uint(f.Size()); m++ {
			if g.Eval(m)[0] != (f.Phase(0, int(m)) == tt.On) {
				t.Fatalf("AIG differs from spec at minterm %d", m)
			}
		}
	}
}

func TestFromExprConstants(t *testing.T) {
	g := New(2)
	if g.FromExpr(factor.NewConst(false)) != ConstFalse {
		t.Fatal("const 0 expr")
	}
	if g.FromExpr(factor.NewConst(true)) != ConstTrue {
		t.Fatal("const 1 expr")
	}
	e := factor.NewLit(1, true)
	if got := g.FromExpr(e); got != g.PI(1).Not() {
		t.Fatal("negated literal expr")
	}
}

func TestAndNOrN(t *testing.T) {
	g := New(4)
	var ls []Lit
	for i := 0; i < 4; i++ {
		ls = append(ls, g.PI(i))
	}
	andAll := g.AndN(ls)
	orAll := g.OrN(ls)
	g.AddPO(andAll)
	g.AddPO(orAll)
	for m := uint(0); m < 16; m++ {
		want := m == 15
		if g.Eval(m)[0] != want {
			t.Fatalf("AndN wrong at %04b", m)
		}
		if g.Eval(m)[1] != (m != 0) {
			t.Fatalf("OrN wrong at %04b", m)
		}
	}
	if g.AndN(nil) != ConstTrue || g.OrN(nil) != ConstFalse {
		t.Fatal("empty folds wrong")
	}
}

func TestLevelsAndFanout(t *testing.T) {
	g := New(2)
	a, b := g.PI(0), g.PI(1)
	x := g.And(a, b)
	y := g.And(x, a.Not())
	g.AddPO(y)
	lv := g.Levels()
	if lv[x.Node()] != 1 || lv[y.Node()] != 2 {
		t.Fatalf("levels wrong: %v", lv)
	}
	fo := g.FanoutCounts()
	if fo[a.Node()] != 2 || fo[x.Node()] != 1 || fo[y.Node()] != 1 {
		t.Fatalf("fanouts wrong: %v", fo)
	}
}

func TestNodeTruthTablesCube(t *testing.T) {
	g := New(3)
	c, _ := cube.Parse("01-")
	e := factor.FromCube(c)
	g.AddPO(g.FromExpr(e))
	table := g.TruthTable(0)
	for m := uint(0); m < 8; m++ {
		if table.Test(int(m)) != c.ContainsMinterm(m) {
			t.Fatalf("cube AIG table wrong at %d", m)
		}
	}
}

// NodeOnCounts gives the count of every NodeTruthTables set on random
// graphs of 0 to 14 inputs, across the one-word and many-word regimes.
func TestNodeOnCountsMatchesTruthTables(t *testing.T) {
	rng := rand.New(rand.NewSource(2604))
	for trial := 0; trial < 200; trial++ {
		g := randomGraph(rng, trial%15, rng.Intn(300), 1+rng.Intn(4))
		tts := g.NodeTruthTables()
		counts := g.NodeOnCounts()
		if len(counts) != len(tts) {
			t.Fatalf("trial %d: %d counts for %d nodes", trial, len(counts), len(tts))
		}
		for i, tt := range tts {
			if counts[i] != tt.Count() {
				t.Fatalf("trial %d (%d inputs) node %d: count %d, truth table %d", trial, g.NumPI(), i, counts[i], tt.Count())
			}
		}
	}
}

func BenchmarkAnd(b *testing.B) {
	g := New(16)
	rng := rand.New(rand.NewSource(95))
	lits := make([]Lit, 16)
	for i := range lits {
		lits[i] = g.PI(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := lits[rng.Intn(len(lits))]
		c := lits[rng.Intn(len(lits))]
		g.And(a, c.Not())
	}
}

func BenchmarkNodeTruthTables(b *testing.B) {
	rng := rand.New(rand.NewSource(96))
	g := randomGraph(rng, 12, 2000, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.NodeTruthTables()
	}
}
