package mapper

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"relsyn/internal/aig"
	"relsyn/internal/benchmarks"
	"relsyn/internal/celllib"
	"relsyn/internal/espresso"
	"relsyn/internal/factor"
	"relsyn/internal/kcut"
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
		if len(m.lookup(2, tb)) == 0 {
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

// suiteGraphs returns the balanced AIG synth builds for each of the ten
// paper-suite specs (the Table 1 stand-ins without random1 and random2)
// from the spec's own don't-cares: per-output espresso, GoodFactor,
// Cleanup, Balance.
func suiteGraphs(tb testing.TB) (names []string, gs []*aig.Graph) {
	tb.Helper()
	for _, s := range benchmarks.Specs() {
		if s.Name == "random1" || s.Name == "random2" {
			continue
		}
		f, err := benchmarks.Load(s.Name)
		if err != nil {
			tb.Fatal(err)
		}
		g := aig.New(f.NumIn)
		for o := range f.Outs {
			cov, err := espresso.MinimizeSets(f.NumIn, f.Outs[o].On, f.Outs[o].DC, nil)
			if err != nil {
				tb.Fatal(err)
			}
			g.AddPO(g.FromExpr(factor.GoodFactor(cov)))
		}
		names = append(names, s.Name)
		gs = append(gs, g.Cleanup().Balance())
	}
	return names, gs
}

// oracleGraphs is the differential corpus: the ten suite AIGs plus random
// graphs large enough that leaf indices cross 9/10, 99/100 and 999/1000.
func oracleGraphs(tb testing.TB) (names []string, gs []*aig.Graph) {
	names, gs = suiteGraphs(tb)
	rng := rand.New(rand.NewSource(170))
	for i := 0; i < 6; i++ {
		names = append(names, fmt.Sprintf("random-%d", i))
		gs = append(gs, randomGraph(rng, 5+rng.Intn(6), 40+rng.Intn(1200), 1+rng.Intn(12)))
	}
	return names, gs
}

func sameCut(c cut, o oracleCut) bool {
	return reflect.DeepEqual(c.Leaves.Ints(), o.leaves) && c.Data.table == o.table
}

// The value-cut enumerator returns exactly the string-keyed oracle's cut
// lists, in order, node by node.
func TestEnumerateCutsMatchesOracle(t *testing.T) {
	names, gs := oracleGraphs(t)
	for gi, g := range gs {
		checkEnumerateCuts(t, names[gi], g)
	}
}

// FuzzEnumerateCuts holds the enumerator to the oracle on random graphs
// of fuzzer-chosen shape, large enough for leaf indices to cross 999/1000.
func FuzzEnumerateCuts(f *testing.F) {
	f.Add(int64(1), uint8(4), uint16(30), uint8(2))
	f.Add(int64(2), uint8(9), uint16(1100), uint8(11))
	f.Fuzz(func(t *testing.T, seed int64, numPI uint8, ands uint16, pos uint8) {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 1+int(numPI)%12, int(ands)%1500, 1+int(pos)%12)
		checkEnumerateCuts(t, "fuzz", g)
	})
}

// checkEnumerateCuts fails t unless enumerateCuts returns the oracle's
// cut lists on g, cut for cut and table for table.
func checkEnumerateCuts(t *testing.T, name string, g *aig.Graph) {
	got, err := enumerateCuts(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracleEnumerateCuts(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d cut sets, oracle %d", name, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s node %d: %d cuts, oracle %d", name, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if !sameCut(got[i][j], want[i][j]) {
				t.Fatalf("%s node %d cut %d: %v/%04x, oracle %v/%04x", name, i, j,
					got[i][j].Leaves.Ints(), got[i][j].Data.table, want[i][j].leaves, want[i][j].table)
			}
		}
	}
}

// Ranking with filterCuts keeps the oracle's cuts in the oracle's order
// on random candidate lists whose leaves straddle decimal-width
// boundaries, with duplicates, constant cuts and dominated cuts mixed in.
func TestFilterCutsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	pool := []int{1, 2, 3, 9, 10, 11, 19, 20, 99, 100, 101, 109, 999, 1000, 1001}
	for trial := 0; trial < 3000; trial++ {
		var cs []cut
		var os []oracleCut
		for n := rng.Intn(40); n > 0; n-- {
			var leaves []int
			if len(os) > 0 && rng.Intn(5) == 0 {
				leaves = os[rng.Intn(len(os))].leaves // duplicate
			} else {
				seen := map[int]bool{}
				for k := rng.Intn(maxCutLeaves + 1); k > 0; k-- {
					if v := pool[rng.Intn(len(pool))]; !seen[v] {
						seen[v] = true
						leaves = append(leaves, v)
					}
				}
				sort.Ints(leaves)
			}
			table := uint16(rng.Intn(1 << 16))
			cs = append(cs, cut{Leaves: kcut.Of(leaves...), Data: cutFunc{table: table}})
			os = append(os, oracleCut{leaves: leaves, table: table})
		}
		got := kcut.Rank(cs, nil, filterCuts, maxCutsPer)
		want := oracleFilterCuts(os)
		if len(got) != len(want) {
			t.Fatalf("trial %d: kept %d, oracle %d", trial, len(got), len(want))
		}
		for i := range want {
			if !sameCut(got[i], want[i]) {
				t.Fatalf("trial %d cut %d: %v, oracle %v", trial, i, got[i].Leaves.Ints(), want[i].leaves)
			}
		}
	}
}

// sigOf is the signature of a leaf list, bit leaf%64 per leaf.
func sigOf(leaves []int) uint64 {
	var sig uint64
	for _, v := range leaves {
		sig |= 1 << uint(v%64)
	}
	return sig
}

// Every enumerated cut carries its leaves' signature, and ranking with
// filterCuts keeps the oracle's cuts when leaves collide mod 64, so equal
// or nested signatures never stand in for equal or nested leaves.
func TestCutSignatures(t *testing.T) {
	names, gs := oracleGraphs(t)
	for gi, g := range gs {
		cuts, err := enumerateCuts(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, cs := range cuts {
			for _, c := range cs {
				if want := sigOf(c.Leaves.Ints()); c.Data.sig != want {
					t.Fatalf("%s node %d cut %v: sig %#x, want %#x", names[gi], i, c.Leaves.Ints(), c.Data.sig, want)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(291))
	pool := []int{1, 2, 3, 65, 66, 67, 129, 130, 131, 193, 1025}
	for trial := 0; trial < 3000; trial++ {
		var cs []cut
		var os []oracleCut
		for n := rng.Intn(40); n > 0; n-- {
			var leaves []int
			if len(os) > 0 && rng.Intn(5) == 0 {
				leaves = os[rng.Intn(len(os))].leaves // duplicate
			} else {
				seen := map[int]bool{}
				for k := rng.Intn(maxCutLeaves + 1); k > 0; k-- {
					if v := pool[rng.Intn(len(pool))]; !seen[v] {
						seen[v] = true
						leaves = append(leaves, v)
					}
				}
				sort.Ints(leaves)
			}
			table := uint16(rng.Intn(1 << 16))
			cs = append(cs, cut{Leaves: kcut.Of(leaves...), Data: cutFunc{table: table, sig: sigOf(leaves)}})
			os = append(os, oracleCut{leaves: leaves, table: table})
		}
		got := kcut.Rank(cs, nil, filterCuts, maxCutsPer)
		want := oracleFilterCuts(os)
		if len(got) != len(want) {
			t.Fatalf("trial %d: kept %d, oracle %d", trial, len(got), len(want))
		}
		for i := range want {
			if !sameCut(got[i], want[i]) {
				t.Fatalf("trial %d cut %d: %v, oracle %v", trial, i, got[i].Leaves.Ints(), want[i].leaves)
			}
		}
	}
}

// mapFixedRounds is MapInterruptible with area recovery's fixed loop:
// three rounds in Area mode whether or not they converge. It reports
// whether a round before the last refined the divisors to the ones it
// had used, the case in which MapInterruptible stops early.
func mapFixedRounds(g *aig.Graph, lib *celllib.Library, mode Mode) (*Result, bool, error) {
	cuts, err := enumerateCuts(g, nil)
	if err != nil {
		return nil, false, err
	}
	total := 1 + g.NumPI() + g.NumNodes()
	div := make([]float64, total)
	for i, f := range g.FanoutCounts() {
		div[i] = max(float64(f), 1)
	}
	rounds := 1
	if mode == Area {
		rounds = 3
	}
	converged := false
	var bestRes *Result
	for r := 0; r < rounds; r++ {
		cands, err := runDP(g, lib, matcherFor(lib), cuts, mode, div, nil)
		if err != nil {
			return nil, false, err
		}
		res, err := extract(g, lib, cands, nodeProbabilities(g))
		if err != nil {
			return nil, false, err
		}
		if bestRes == nil ||
			(mode == Area && res.Area < bestRes.Area) ||
			(mode == Delay && res.DelayPs < bestRes.DelayPs) {
			bestRes = res
		}
		if !refineDivisors(g, res, div) && r < rounds-1 {
			converged = true
		}
	}
	return bestRes, converged, nil
}

// Ending area recovery once a round repeats its divisors changes no
// Result: MapInterruptible matches the fixed three-round loop on every
// suite AIG and on seeded random AIGs, and the suite exercises the
// early exit.
func TestMapConvergedRoundsMatchFixedRounds(t *testing.T) {
	lib := celllib.Generic70()
	names, gs := suiteGraphs(t)
	suite := len(gs)
	rng := rand.New(rand.NewSource(292))
	for i := 0; i < 40; i++ {
		names = append(names, fmt.Sprintf("random-%d", i))
		gs = append(gs, randomGraph(rng, 3+rng.Intn(8), 5+rng.Intn(300), 1+rng.Intn(6)))
	}
	suiteConverged := 0
	for gi, g := range gs {
		for _, mode := range []Mode{Delay, Area} {
			got, err := Map(g, lib, mode)
			if err != nil {
				t.Fatal(err)
			}
			want, converged, err := mapFixedRounds(g, lib, mode)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %v: area %v/%v delay %v/%v power %v/%v gates %d/%d",
					names[gi], mode, got.Area, want.Area, got.DelayPs, want.DelayPs,
					got.Power, want.Power, got.GateCount(), want.GateCount())
			}
			if converged && gi < suite {
				suiteConverged++
			}
		}
	}
	if suiteConverged == 0 {
		t.Fatal("no suite AIG converged before the last area-recovery round")
	}
	t.Logf("%d of %d suite AIGs converged early in Area mode", suiteConverged, suite)
}

// testLeaves returns k distinct leaves whose order is the same
// numerically and as printed.
func testLeaves(k int) kcut.Leaves {
	return kcut.Of([]int{11, 22, 33, 44}[:k]...)
}

// expandTable's replicate-and-swap algebra agrees with the row walk on
// every 16-bit table (high rows included) for every embedding of an old
// leaf set into a new one of up to four leaves.
func TestExpandTableExhaustive(t *testing.T) {
	for k := 0; k <= maxCutLeaves; k++ {
		newLeaves := testLeaves(k)
		for sub := uint(0); sub < 1<<uint(k); sub++ {
			oldLeaves := newLeaves.Select(sub)
			oldInts, newInts := oldLeaves.Ints(), newLeaves.Ints()
			for tb := 0; tb < 1<<16; tb++ {
				got := expandTable(uint16(tb), oldLeaves, newLeaves)
				if want := oracleExpandTable(uint16(tb), oldInts, newInts); got != want {
					t.Fatalf("expandTable(%04x, %v, %v) = %04x, row walk %04x", tb, oldInts, newInts, got, want)
				}
			}
		}
	}
}

// dependsOn's masked XOR agrees with the row walk on every 16-bit table
// for every variable v < k.
func TestDependsOnExhaustive(t *testing.T) {
	for k := 1; k <= maxCutLeaves; k++ {
		for v := 0; v < k; v++ {
			for tb := 0; tb < 1<<16; tb++ {
				if got, want := dependsOn(uint16(tb), v, k), oracleDependsOn(uint16(tb), v, k); got != want {
					t.Fatalf("dependsOn(%04x, %d, %d) = %v, row walk %v", tb, v, k, got, want)
				}
			}
		}
	}
}

// normalizeCut's swaps give the row walk's leaves and table on every
// 16-bit table over zero to four leaves.
func TestNormalizeCutExhaustive(t *testing.T) {
	for k := 0; k <= maxCutLeaves; k++ {
		leaves := testLeaves(k)
		for tb := 0; tb < 1<<16; tb++ {
			got := normalizeCut(cut{Leaves: leaves, Data: cutFunc{table: uint16(tb)}})
			want := oracleNormalizeCut(oracleCut{leaves: leaves.Ints(), table: uint16(tb)})
			if !sameCut(got, want) {
				t.Fatalf("normalizeCut(%04x over %d leaves) = %v/%04x, row walk %v/%04x",
					tb, k, got.Leaves.Ints(), got.Data.table, want.leaves, want.table)
			}
		}
	}
}

// Map returns exactly the oracle's Result — gates, PO nets, area, delay,
// power and cell counts, bit for bit — in both modes.
func TestMapMatchesOracle(t *testing.T) {
	lib := celllib.Generic70()
	names, gs := oracleGraphs(t)
	for gi, g := range gs {
		for _, mode := range []Mode{Delay, Area} {
			got, err := Map(g, lib, mode)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracleMapInterruptible(g, lib, mode, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %v: area %v/%v delay %v/%v power %v/%v gates %d/%d",
					names[gi], mode, got.Area, want.Area, got.DelayPs, want.DelayPs,
					got.Power, want.Power, got.GateCount(), want.GateCount())
			}
		}
	}
}

// cachedMatcher reads lib's cache entry without building one.
func cachedMatcher(lib *celllib.Library) *matcher {
	matchers.Lock()
	defer matchers.Unlock()
	return matchers.byLib[lib]
}

// withoutCell returns a new library: lib minus the named cell.
func withoutCell(lib *celllib.Library, name string) *celllib.Library {
	out := &celllib.Library{Inv: lib.Inv}
	for _, c := range lib.Cells {
		if c.Name != name {
			out.Cells = append(out.Cells, c)
		}
	}
	return out
}

// Map builds a library's matcher once and shares it across calls; a
// different library gets its own.
func TestMatcherBuiltOncePerLibrary(t *testing.T) {
	lib := celllib.Generic70()
	if celllib.Generic70() != lib {
		t.Fatal("Generic70 returned two libraries")
	}
	g := randomGraph(rand.New(rand.NewSource(172)), 6, 80, 4)
	if _, err := Map(g, lib, Area); err != nil {
		t.Fatal(err)
	}
	first := cachedMatcher(lib)
	if first == nil {
		t.Fatal("Map left no matcher cached for its library")
	}
	if _, err := Map(g, lib, Delay); err != nil {
		t.Fatal(err)
	}
	if cachedMatcher(lib) != first {
		t.Fatal("second Map call rebuilt the matcher")
	}

	noNand := withoutCell(lib, "NAND2")
	for _, mode := range []Mode{Delay, Area} {
		r, err := Map(g, noNand, mode)
		if err != nil {
			t.Fatal(err)
		}
		checkMappingCorrect(t, g, r)
		if r.CellCounts["NAND2"] != 0 {
			t.Fatalf("%v: mapped %d NAND2 cells with a library that has none", mode, r.CellCounts["NAND2"])
		}
	}
	own := cachedMatcher(noNand)
	if own == nil || own == first {
		t.Fatal("a different library did not get its own matcher")
	}
	for _, ix := range own.byArity {
		for _, m := range ix.matches {
			if m.cell.Name == "NAND2" {
				t.Fatal("NAND2 matches leaked into the library without NAND2")
			}
		}
	}
	if _, err := Map(g, lib, Area); err != nil || cachedMatcher(lib) != first {
		t.Fatalf("mapping another library disturbed the first one's matcher (%v)", err)
	}
}

// Concurrent Map calls, some racing to build a new library's matcher,
// share the cache safely (run under -race) and map as serial calls do.
func TestMatcherCacheConcurrent(t *testing.T) {
	libs := []*celllib.Library{celllib.Generic70(), withoutCell(celllib.Generic70(), "XOR2")}
	g := randomGraph(rand.New(rand.NewSource(173)), 7, 150, 5)
	var wg sync.WaitGroup
	results := make([]*Result, 8)
	errs := make([]error, len(results))
	for w := range results {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w], errs[w] = Map(g, libs[w%2], Mode(w/2%2))
		}(w)
	}
	wg.Wait()
	for w, r := range results {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		want, err := Map(g, libs[w%2], Mode(w/2%2))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("worker %d: concurrent result differs from a serial one", w)
		}
	}
}

// The power sum walks nets in index order, so a net index must sort as
// the (node, positive phase first) order the sum was defined in.
func TestNetIndexOrder(t *testing.T) {
	prev := -1
	for node := 0; node < 50; node++ {
		for _, neg := range []bool{false, true} {
			i := netIndex(Net{Node: node, Neg: neg})
			if i <= prev {
				t.Fatalf("netIndex(%d,%v) = %d after %d", node, neg, i, prev)
			}
			prev = i
		}
	}
}

// ---- Oracle: the string-keyed mapper Map replaced. ----
//
// Slice cuts deduplicated and ordered by fmt.Sprint(leaves), candidates
// and matches copied by value, map-keyed nets in extract, and a matcher
// rebuilt on every call. The differential tests above hold the production
// mapper to it.

// oracleMatch is one way to realize a specific function over cut leaves.
type oracleMatch struct {
	cell    celllib.Cell
	pinLeaf []int  // pinLeaf[pin] = leaf position the pin connects to
	inNeg   []bool // pin polarity (true = leaf used complemented)
}

// oracleMatcher indexes matches by arity and exact truth table over the leaves.
type oracleMatcher struct {
	byArity [maxCutLeaves + 1]map[uint16][]oracleMatch
}

func oracleBuildMatcher(lib *celllib.Library) *oracleMatcher {
	m := &oracleMatcher{}
	for k := 1; k <= maxCutLeaves; k++ {
		m.byArity[k] = make(map[uint16][]oracleMatch)
	}
	for _, cell := range lib.Cells {
		k := cell.NumIn
		if k > maxCutLeaves {
			continue
		}
		perms := permutations(k)
		type key struct {
			table  uint16
			negCnt int
		}
		seen := map[string]map[key]bool{}
		if seen[cell.Name] == nil {
			seen[cell.Name] = map[key]bool{}
		}
		for _, perm := range perms {
			for negMask := 0; negMask < 1<<uint(k); negMask++ {
				table := permNegTable(cell.Table, perm, negMask, k)
				negCnt := popcount(negMask)
				kk := key{table, negCnt}
				if seen[cell.Name][kk] {
					continue
				}
				seen[cell.Name][kk] = true
				pinLeaf := make([]int, k)
				inNeg := make([]bool, k)
				for pin := 0; pin < k; pin++ {
					pinLeaf[pin] = perm[pin]
					inNeg[pin] = negMask>>uint(pin)&1 == 1
				}
				m.byArity[k][table] = append(m.byArity[k][table],
					oracleMatch{cell: cell, pinLeaf: pinLeaf, inNeg: inNeg})
			}
		}
	}
	return m
}

// oracleCut is a set of leaves with the root's function over them.
type oracleCut struct {
	leaves []int // sorted AIG node indices
	table  uint16
}

// oracleEnumerateCuts returns per-node cut sets (trivial cut excluded from the
// returned matchable sets but used during merging).
func oracleEnumerateCuts(g *aig.Graph, poll func() error) ([][]oracleCut, error) {
	total := 1 + g.NumPI() + g.NumNodes()
	// withTrivial[i] includes {i}; cuts used for matching exclude it.
	withTrivial := make([][]oracleCut, total)
	for i := 1; i <= g.NumPI(); i++ {
		withTrivial[i] = []oracleCut{{leaves: []int{i}, table: 0b10}}
	}
	for i := g.NumPI() + 1; i < total; i++ {
		if err := kcut.CheckPoll(poll, i); err != nil {
			return nil, err
		}
		f0, f1 := g.Fanins(i)
		var cs []oracleCut
		for _, c0 := range withTrivial[f0.Node()] {
			for _, c1 := range withTrivial[f1.Node()] {
				leaves := oracleMergeLeaves(c0.leaves, c1.leaves)
				if leaves == nil {
					continue
				}
				t0 := oracleExpandTable(c0.table, c0.leaves, leaves)
				if f0.Compl() {
					t0 = ^t0
				}
				t1 := oracleExpandTable(c1.table, c1.leaves, leaves)
				if f1.Compl() {
					t1 = ^t1
				}
				table := t0 & t1 & rowMask(len(leaves))
				cs = append(cs, oracleNormalizeCut(oracleCut{leaves: leaves, table: table}))
			}
		}
		cs = oracleFilterCuts(cs)
		withTrivial[i] = append(cs, oracleCut{leaves: []int{i}, table: 0b10})
	}
	out := make([][]oracleCut, total)
	for i := range withTrivial {
		var cs []oracleCut
		for _, c := range withTrivial[i] {
			if !(len(c.leaves) == 1 && c.leaves[0] == i) {
				cs = append(cs, c)
			}
		}
		out[i] = cs
	}
	return out, nil
}

// oracleMergeLeaves unions two sorted leaf lists, returning nil when the union
// exceeds maxCutLeaves.
func oracleMergeLeaves(a, b []int) []int {
	out := make([]int, 0, maxCutLeaves)
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var v int
		switch {
		case i >= len(a):
			v = b[j]
			j++
		case j >= len(b):
			v = a[i]
			i++
		case a[i] < b[j]:
			v = a[i]
			i++
		case a[i] > b[j]:
			v = b[j]
			j++
		default:
			v = a[i]
			i++
			j++
		}
		if len(out) == maxCutLeaves {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// oracleExpandTable re-expresses a table over oldLeaves as a table over
// newLeaves (a superset).
func oracleExpandTable(t uint16, oldLeaves, newLeaves []int) uint16 {
	pos := make([]int, len(oldLeaves))
	for i, l := range oldLeaves {
		pos[i] = oracleIndexOf(newLeaves, l)
	}
	var out uint16
	for row := uint(0); row < 1<<uint(len(newLeaves)); row++ {
		var oldRow uint
		for i := range oldLeaves {
			if row>>uint(pos[i])&1 == 1 {
				oldRow |= 1 << uint(i)
			}
		}
		if t>>oldRow&1 == 1 {
			out |= 1 << row
		}
	}
	return out
}

func oracleIndexOf(s []int, v int) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	panic("mapper: leaf not found")
}

// oracleNormalizeCut removes leaves outside the function's support.
func oracleNormalizeCut(c oracleCut) oracleCut {
	k := len(c.leaves)
	var kept []int
	for i := 0; i < k; i++ {
		if oracleDependsOn(c.table, i, k) {
			kept = append(kept, i)
		}
	}
	if len(kept) == k {
		return c
	}
	newLeaves := make([]int, len(kept))
	for i, old := range kept {
		newLeaves[i] = c.leaves[old]
	}
	var nt uint16
	for row := uint(0); row < 1<<uint(len(kept)); row++ {
		var oldRow uint
		for i, old := range kept {
			if row>>uint(i)&1 == 1 {
				oldRow |= 1 << uint(old)
			}
		}
		if c.table>>oldRow&1 == 1 {
			nt |= 1 << row
		}
	}
	return oracleCut{leaves: newLeaves, table: nt}
}

// oracleDependsOn walks the rows of a table over k leaves for a pair
// that differs only in variable v.
func oracleDependsOn(t uint16, v, k int) bool {
	for row := uint(0); row < 1<<uint(k); row++ {
		if row>>uint(v)&1 == 1 {
			continue
		}
		if t>>row&1 != t>>(row|1<<uint(v))&1 {
			return true
		}
	}
	return false
}

// oracleFilterCuts deduplicates, removes dominated cuts (supersets of another
// cut), and keeps the best few by leaf count.
func oracleFilterCuts(cs []oracleCut) []oracleCut {
	// Dedup by leaf signature (same leaves imply same table for a fixed
	// root function).
	seen := map[string]bool{}
	var uniq []oracleCut
	for _, c := range cs {
		if len(c.leaves) == 0 {
			continue // constant function cut: unusable for matching
		}
		key := fmt.Sprint(c.leaves)
		if seen[key] {
			continue
		}
		seen[key] = true
		uniq = append(uniq, c)
	}
	// Dominance: drop c if another cut's leaves are a strict subset.
	var kept []oracleCut
	for i, c := range uniq {
		dominated := false
		for j, d := range uniq {
			if i == j {
				continue
			}
			if len(d.leaves) < len(c.leaves) && oracleSubsetOf(d.leaves, c.leaves) {
				dominated = true
				break
			}
		}
		if !dominated {
			kept = append(kept, c)
		}
	}
	sort.SliceStable(kept, func(i, j int) bool {
		if len(kept[i].leaves) != len(kept[j].leaves) {
			return len(kept[i].leaves) < len(kept[j].leaves)
		}
		return fmt.Sprint(kept[i].leaves) < fmt.Sprint(kept[j].leaves)
	})
	if len(kept) > maxCutsPer {
		kept = kept[:maxCutsPer]
	}
	return kept
}

func oracleSubsetOf(a, b []int) bool {
	j := 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		if j >= len(b) || b[j] != v {
			return false
		}
	}
	return true
}

// oracleCand is the best implementation found for one (node, phase).
type oracleCand struct {
	arrival float64
	flow    float64
	viaInv  bool
	cut     oracleCut
	m       oracleMatch
	valid   bool
}

func oracleBetter(a, b oracleCand, mode Mode) bool {
	if !b.valid {
		return true
	}
	if !a.valid {
		return false
	}
	if mode == Delay {
		if a.arrival != b.arrival {
			return a.arrival < b.arrival
		}
		return a.flow < b.flow
	}
	if a.flow != b.flow {
		return a.flow < b.flow
	}
	return a.arrival < b.arrival
}

// oracleMapInterruptible is the string-keyed mapper Map replaced: the
// same covering on slice cuts, map-keyed nets and a matcher rebuilt on
// every call.
func oracleMapInterruptible(g *aig.Graph, lib *celllib.Library, mode Mode, poll func() error) (*Result, error) {
	mt := oracleBuildMatcher(lib)
	cuts, err := oracleEnumerateCuts(g, poll)
	if err != nil {
		return nil, err
	}
	total := 1 + g.NumPI() + g.NumNodes()
	div := make([]float64, total)
	for i, f := range g.FanoutCounts() {
		div[i] = float64(f)
		if div[i] < 1 {
			div[i] = 1
		}
	}
	rounds := 1
	if mode == Area {
		rounds = 3
	}
	var bestRes *Result
	for r := 0; r < rounds; r++ {
		cands, err := oracleRunDP(g, lib, mt, cuts, mode, div, poll)
		if err != nil {
			return nil, err
		}
		res, err := oracleExtract(g, lib, cands)
		if err != nil {
			return nil, err
		}
		if bestRes == nil ||
			(mode == Area && res.Area < bestRes.Area) ||
			(mode == Delay && res.DelayPs < bestRes.DelayPs) {
			bestRes = res
		}
		// Refine divisors with the actual reference counts of this cover.
		refs := make([]float64, total)
		for _, gt := range res.Gates {
			for _, in := range gt.Inputs {
				refs[in.Node]++
			}
		}
		for i := 0; i < g.NumPO(); i++ {
			refs[g.PO(i).Node()]++
		}
		for i := range div {
			if refs[i] >= 1 {
				div[i] = refs[i]
			} else {
				div[i] = 1
			}
		}
	}
	return bestRes, nil
}

// oracleRunDP computes the best candidate per (node, phase) with the given
// fanout divisors.
func oracleRunDP(g *aig.Graph, lib *celllib.Library, mt *oracleMatcher, cuts [][]oracleCut, mode Mode, div []float64, poll func() error) ([][2]oracleCand, error) {
	total := 1 + g.NumPI() + g.NumNodes()
	inv := lib.Inv

	best := make([][2]oracleCand, total)
	for i := 1; i <= g.NumPI(); i++ {
		best[i][0] = oracleCand{valid: true}
		best[i][1] = oracleCand{valid: true, viaInv: true, arrival: inv.Delay, flow: inv.Area}
	}
	for i := g.NumPI() + 1; i < total; i++ {
		if err := kcut.CheckPoll(poll, i); err != nil {
			return nil, err
		}
		for _, c := range cuts[i] {
			k := len(c.leaves)
			for phase := 0; phase < 2; phase++ {
				table := c.table
				if phase == 1 {
					table = ^table & rowMask(k)
				}
				for _, m := range mt.byArity[k][table] {
					cd := oracleCand{valid: true, cut: c, m: m, flow: m.cell.Area, arrival: 0}
					feasible := true
					for pin := 0; pin < k; pin++ {
						leaf := c.leaves[m.pinLeaf[pin]]
						ph := 0
						if m.inNeg[pin] {
							ph = 1
						}
						lb := best[leaf][ph]
						if !lb.valid {
							feasible = false
							break
						}
						if lb.arrival > cd.arrival {
							cd.arrival = lb.arrival
						}
						cd.flow += lb.flow / div[leaf]
					}
					if !feasible {
						continue
					}
					cd.arrival += m.cell.Delay
					if oracleBetter(cd, best[i][phase], mode) {
						best[i][phase] = cd
					}
				}
			}
		}
		// Inverter repair, both directions, two rounds for stability.
		for round := 0; round < 2; round++ {
			for phase := 0; phase < 2; phase++ {
				other := best[i][1-phase]
				if !other.valid {
					continue
				}
				cd := oracleCand{valid: true, viaInv: true,
					arrival: other.arrival + inv.Delay, flow: other.flow + inv.Area}
				if oracleBetter(cd, best[i][phase], mode) {
					best[i][phase] = cd
				}
			}
		}
		if !best[i][0].valid || !best[i][1].valid {
			return nil, fmt.Errorf("mapper: node %d unmatchable in some phase", i)
		}
	}
	return best, nil
}

// oracleExtract walks required nets from the POs, emits gates, and computes
// area/delay/power.
func oracleExtract(g *aig.Graph, lib *celllib.Library, best [][2]oracleCand) (*Result, error) {
	res := &Result{CellCounts: map[string]int{}}
	emitted := map[Net]bool{}
	arrival := map[Net]float64{}
	inv := lib.Inv

	var emit func(net Net) error
	emit = func(net Net) error {
		if emitted[net] {
			return nil
		}
		emitted[net] = true
		if net.Node == 0 {
			// Constant net: no gate; arrival 0.
			arrival[net] = 0
			return nil
		}
		if net.Node <= g.NumPI() && !net.Neg {
			arrival[net] = 0
			return nil
		}
		phase := 0
		if net.Neg {
			phase = 1
		}
		b := best[net.Node][phase]
		if !b.valid {
			return fmt.Errorf("mapper: no implementation for net %+v", net)
		}
		if b.viaInv {
			src := Net{Node: net.Node, Neg: !net.Neg}
			if err := emit(src); err != nil {
				return err
			}
			res.Gates = append(res.Gates, Gate{Cell: inv, Inputs: []Net{src}, Output: net})
			res.CellCounts[inv.Name]++
			arrival[net] = arrival[src] + inv.Delay
			return nil
		}
		ins := make([]Net, len(b.m.pinLeaf))
		worst := 0.0
		for pin := range b.m.pinLeaf {
			leaf := b.cut.leaves[b.m.pinLeaf[pin]]
			in := Net{Node: leaf, Neg: b.m.inNeg[pin]}
			if err := emit(in); err != nil {
				return err
			}
			ins[pin] = in
			if arrival[in] > worst {
				worst = arrival[in]
			}
		}
		res.Gates = append(res.Gates, Gate{Cell: b.m.cell, Inputs: ins, Output: net})
		res.CellCounts[b.m.cell.Name]++
		arrival[net] = worst + b.m.cell.Delay
		return nil
	}

	poNets := make([]Net, g.NumPO())
	for i := 0; i < g.NumPO(); i++ {
		l := g.PO(i)
		net := Net{Node: l.Node(), Neg: l.Compl()}
		if l.Node() == 0 {
			// Constant PO: normalize to the constant net with its phase.
			net = Net{Node: 0, Neg: l.Compl()}
		}
		if err := emit(net); err != nil {
			return nil, err
		}
		poNets[i] = net
	}
	res.PONets = poNets

	// Metrics.
	for _, gt := range res.Gates {
		res.Area += gt.Cell.Area
		res.Power += gt.Cell.Leakage * 0.01 // leakage contribution (scaled)
	}
	for _, net := range poNets {
		if a := arrival[net]; a > res.DelayPs {
			res.DelayPs = a
		}
	}
	// Dynamic power: activity × capacitive load per net.
	probs := oracleNetProbabilities(g)
	load := map[Net]float64{}
	for _, gt := range res.Gates {
		for _, in := range gt.Inputs {
			load[in] += gt.Cell.InputCap
		}
	}
	for _, net := range poNets {
		load[net] += poCap
	}
	nets := make([]Net, 0, len(load))
	for net := range load {
		nets = append(nets, net)
	}
	sort.Slice(nets, func(i, j int) bool {
		if nets[i].Node != nets[j].Node {
			return nets[i].Node < nets[j].Node
		}
		return !nets[i].Neg && nets[j].Neg
	})
	for _, net := range nets {
		p := probs(net)
		res.Power += 2 * p * (1 - p) * (load[net] + wireCap)
	}
	if math.IsNaN(res.Power) {
		return nil, fmt.Errorf("mapper: power computation produced NaN")
	}
	return res, nil
}

// oracleNetProbabilities returns a closure giving each net's signal probability
// from exhaustive simulation.
func oracleNetProbabilities(g *aig.Graph) func(Net) float64 {
	tts := g.NodeTruthTables()
	size := float64(int(1) << uint(g.NumPI()))
	return func(n Net) float64 {
		p := float64(tts[n.Node].Count()) / size
		if n.Neg {
			p = 1 - p
		}
		return p
	}
}
