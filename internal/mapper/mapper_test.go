package mapper

import (
	"errors"
	"math/rand"
	"testing"

	"relsyn/internal/aig"
	"relsyn/internal/celllib"
	"relsyn/internal/espresso"
	"relsyn/internal/factor"
	"relsyn/internal/tt"
)

// simulateNetlist evaluates the mapped netlist on one input minterm and
// returns the value of every net.
func simulateNetlist(t *testing.T, g *aig.Graph, r *Result, minterm uint) map[Net]bool {
	t.Helper()
	val := map[Net]bool{
		{Node: 0, Neg: false}: false,
		{Node: 0, Neg: true}:  true,
	}
	for i := 0; i < g.NumPI(); i++ {
		val[Net{Node: 1 + i, Neg: false}] = minterm>>uint(i)&1 == 1
	}
	for _, gt := range r.Gates {
		var row uint
		for pin, in := range gt.Inputs {
			v, ok := val[in]
			if !ok {
				t.Fatalf("gate %s input %+v not yet computed (not topological?)", gt.Cell.Name, in)
			}
			if v {
				row |= 1 << uint(pin)
			}
		}
		val[gt.Output] = gt.Cell.Table>>row&1 == 1
	}
	return val
}

// checkMappingCorrect verifies the netlist computes the AIG's function.
func checkMappingCorrect(t *testing.T, g *aig.Graph, r *Result) {
	t.Helper()
	for m := uint(0); m < 1<<uint(g.NumPI()); m++ {
		want := g.Eval(m)
		val := simulateNetlist(t, g, r, m)
		for i := 0; i < g.NumPO(); i++ {
			l := g.PO(i)
			net := Net{Node: l.Node(), Neg: l.Compl()}
			got, ok := val[net]
			if !ok {
				t.Fatalf("PO %d net %+v not driven", i, net)
			}
			if got != want[i] {
				t.Fatalf("PO %d wrong at minterm %d: got %v want %v", i, m, got, want[i])
			}
		}
	}
}

func randomGraph(rng *rand.Rand, numPI, ands, pos int) *aig.Graph {
	g := aig.New(numPI)
	lits := []aig.Lit{}
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
	return g.Cleanup()
}

func TestMapSimpleGates(t *testing.T) {
	lib := celllib.Generic70()
	g := aig.New(2)
	a, b := g.PI(0), g.PI(1)
	g.AddPO(g.And(a, b))
	r, err := Map(g, lib, Area)
	if err != nil {
		t.Fatal(err)
	}
	checkMappingCorrect(t, g, r)
	if r.GateCount() != 1 || r.CellCounts["AND2"] != 1 {
		t.Fatalf("AND should map to one AND2 cell, got %v", r.CellCounts)
	}
}

func TestMapNandPhase(t *testing.T) {
	lib := celllib.Generic70()
	g := aig.New(2)
	a, b := g.PI(0), g.PI(1)
	g.AddPO(g.And(a, b).Not())
	r, err := Map(g, lib, Area)
	if err != nil {
		t.Fatal(err)
	}
	checkMappingCorrect(t, g, r)
	// NAND2 is cheaper than AND2+INV: one cell.
	if r.GateCount() != 1 || r.CellCounts["NAND2"] != 1 {
		t.Fatalf("NAND should map to one NAND2, got %v", r.CellCounts)
	}
}

func TestMapXor(t *testing.T) {
	lib := celllib.Generic70()
	g := aig.New(2)
	a, b := g.PI(0), g.PI(1)
	g.AddPO(g.Xor(a, b))
	r, err := Map(g, lib, Area)
	if err != nil {
		t.Fatal(err)
	}
	checkMappingCorrect(t, g, r)
	if r.CellCounts["XOR2"] != 1 || r.GateCount() != 1 {
		t.Fatalf("XOR should map to one XOR2, got %v", r.CellCounts)
	}
}

func TestMapInvertedInput(t *testing.T) {
	lib := celllib.Generic70()
	g := aig.New(2)
	a, b := g.PI(0), g.PI(1)
	g.AddPO(g.And(a, b.Not())) // x ∧ ¬y: realizable as NOR2(¬x, y)
	r, err := Map(g, lib, Area)
	if err != nil {
		t.Fatal(err)
	}
	checkMappingCorrect(t, g, r)
	if r.GateCount() > 2 {
		t.Fatalf("x∧¬y should need at most 2 cells, got %d (%v)", r.GateCount(), r.CellCounts)
	}
}

func TestMapConstantAndPassthroughPOs(t *testing.T) {
	lib := celllib.Generic70()
	g := aig.New(2)
	g.AddPO(aig.ConstFalse)
	g.AddPO(aig.ConstTrue)
	g.AddPO(g.PI(0))
	g.AddPO(g.PI(1).Not())
	r, err := Map(g, lib, Delay)
	if err != nil {
		t.Fatal(err)
	}
	checkMappingCorrect(t, g, r)
	if r.CellCounts["INV"] != 1 || r.GateCount() != 1 {
		t.Fatalf("expected exactly one INV for the negated PI PO, got %v", r.CellCounts)
	}
}

func TestMapRandomEquivalence(t *testing.T) {
	lib := celllib.Generic70()
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(rng, 4+rng.Intn(4), 10+rng.Intn(60), 1+rng.Intn(5))
		for _, mode := range []Mode{Delay, Area} {
			r, err := Map(g, lib, mode)
			if err != nil {
				t.Fatalf("trial %d mode %v: %v", trial, mode, err)
			}
			checkMappingCorrect(t, g, r)
			if r.Area <= 0 && r.GateCount() > 0 {
				t.Fatal("zero area for nonempty netlist")
			}
		}
	}
}

func TestDelayModeNotSlowerThanAreaMode(t *testing.T) {
	lib := celllib.Generic70()
	rng := rand.New(rand.NewSource(102))
	worse := 0
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 6, 80, 4)
		rd, err := Map(g, lib, Delay)
		if err != nil {
			t.Fatal(err)
		}
		ra, err := Map(g, lib, Area)
		if err != nil {
			t.Fatal(err)
		}
		if rd.DelayPs > ra.DelayPs+1e-9 {
			worse++
		}
	}
	// Delay-mode mapping must essentially never be slower than area mode.
	if worse > 0 {
		t.Fatalf("delay mode slower than area mode in %d/20 trials", worse)
	}
}

func TestAreaModeNotLargerThanDelayMode(t *testing.T) {
	lib := celllib.Generic70()
	rng := rand.New(rand.NewSource(103))
	larger := 0
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 6, 80, 4)
		rd, _ := Map(g, lib, Delay)
		ra, _ := Map(g, lib, Area)
		if ra.Area > rd.Area+1e-9 {
			larger++
		}
	}
	// Area flow is a heuristic, so allow rare inversions but not a trend.
	if larger > 4 {
		t.Fatalf("area mode larger than delay mode in %d/20 trials", larger)
	}
}

func TestMapEndToEndFromSpec(t *testing.T) {
	lib := celllib.Generic70()
	rng := rand.New(rand.NewSource(104))
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(3)
		f := tt.New(n, 2)
		for o := 0; o < 2; o++ {
			for m := 0; m < f.Size(); m++ {
				f.SetPhase(o, m, tt.Phase(rng.Intn(3)))
			}
		}
		g := aig.New(n)
		for o := 0; o < 2; o++ {
			cov := espresso.Minimize(f.OnCover(o), f.DCCover(o))
			g.AddPO(g.FromExpr(factor.GoodFactor(cov)))
		}
		g = g.Cleanup().Balance()
		r, err := Map(g, lib, Area)
		if err != nil {
			t.Fatal(err)
		}
		checkMappingCorrect(t, g, r)
		// Mapped implementation must respect the original spec's care set.
		for m := uint(0); m < uint(f.Size()); m++ {
			val := simulateNetlist(t, g, r, m)
			for o := 0; o < 2; o++ {
				l := g.PO(o)
				got := val[Net{Node: l.Node(), Neg: l.Compl()}]
				switch f.Phase(o, int(m)) {
				case tt.On:
					if !got {
						t.Fatalf("netlist misses on-set minterm %d out %d", m, o)
					}
				case tt.Off:
					if got {
						t.Fatalf("netlist covers off-set minterm %d out %d", m, o)
					}
				}
			}
		}
	}
}

func TestMetricsPositive(t *testing.T) {
	lib := celllib.Generic70()
	rng := rand.New(rand.NewSource(105))
	g := randomGraph(rng, 6, 60, 4)
	r, err := Map(g, lib, Delay)
	if err != nil {
		t.Fatal(err)
	}
	if r.GateCount() == 0 {
		t.Skip("degenerate random graph")
	}
	if r.Area <= 0 || r.DelayPs <= 0 || r.Power <= 0 {
		t.Fatalf("metrics not positive: area=%v delay=%v power=%v", r.Area, r.DelayPs, r.Power)
	}
}

func TestBuildMatcherCoversAndFamily(t *testing.T) {
	lib := celllib.Generic70()
	m := buildMatcher(lib)
	// Every 2-input AND-type function (x∧y with any input phases) must be
	// matchable, since the DP's feasibility relies on it.
	tables := []uint16{
		0b1000, // x∧y
		0b0100, // x∧¬y... bit r encodes row; row 2 = x=0,y=1
		0b0010,
		0b0001,
		0b0111, // nand
		0b1110, // or
	}
	for _, tb := range tables {
		if len(m.byArity[2][tb]) == 0 {
			t.Fatalf("no match for 2-input table %04b", tb)
		}
	}
}

func BenchmarkMapArea(b *testing.B) {
	lib := celllib.Generic70()
	rng := rand.New(rand.NewSource(106))
	g := randomGraph(rng, 10, 600, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Map(g, lib, Area); err != nil {
			b.Fatal(err)
		}
	}
}

// MapInterruptible aborts with the poll's error, and with a poll that
// never fires maps exactly as Map does.
func TestMapInterruptible(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(16)), 8, 2000, 64)
	lib := celllib.Generic70()
	stop := errors.New("stop")
	if _, err := MapInterruptible(g, lib, Area, func() error { return stop }); !errors.Is(err, stop) {
		t.Fatalf("interrupted map returned %v, want %v", err, stop)
	}
	want, err := Map(g, lib, Area)
	if err != nil {
		t.Fatal(err)
	}
	polls := 0
	got, err := MapInterruptible(g, lib, Area, func() error { polls++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if polls < 2 {
		t.Fatalf("%d polls over a %d-node graph", polls, g.NumNodes())
	}
	if got.Area != want.Area || got.DelayPs != want.DelayPs || got.GateCount() != want.GateCount() {
		t.Fatalf("polled map differs: area %v/%v delay %v/%v gates %d/%d",
			got.Area, want.Area, got.DelayPs, want.DelayPs, got.GateCount(), want.GateCount())
	}
}
