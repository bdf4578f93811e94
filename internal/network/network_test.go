package network_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"relsyn/internal/aig"
	"relsyn/internal/benchmarks"
	"relsyn/internal/bitset"
	"relsyn/internal/network"
	"relsyn/internal/synth"
	"relsyn/internal/tt"
)

func randomFunction(rng *rand.Rand, n, m int, dcFrac float64) *tt.Function {
	f := tt.New(n, m)
	for o := 0; o < m; o++ {
		for mm := 0; mm < f.Size(); mm++ {
			r := rng.Float64()
			switch {
			case r < dcFrac:
				f.SetPhase(o, mm, tt.DC)
			case r < dcFrac+(1-dcFrac)/2:
				f.SetPhase(o, mm, tt.On)
			}
		}
	}
	return f
}

func synthAIG(t *testing.T, rng *rand.Rand, n, m int) *aig.Graph {
	t.Helper()
	f := randomFunction(rng, n, m, 0.4)
	res, err := synth.Synthesize(f, synth.Options{Objective: synth.OptimizePower})
	if err != nil {
		t.Fatal(err)
	}
	return res.Graph
}

func checkEquivalent(t *testing.T, g *aig.Graph, nw *network.Network) {
	t.Helper()
	for m := uint(0); m < 1<<uint(g.NumPI()); m++ {
		want := g.Eval(m)
		got := nw.Eval(m)
		if len(want) != len(got) {
			t.Fatal("PO count mismatch")
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("network differs from AIG at minterm %d PO %d", m, i)
			}
		}
	}
}

func TestFromAIGEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	for trial := 0; trial < 6; trial++ {
		g := synthAIG(t, rng, 5+rng.Intn(3), 1+rng.Intn(3))
		nw, err := network.FromAIG(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		checkEquivalent(t, g, nw)
		for ni, nd := range nw.Nodes {
			if nd.NumIn() > 4 {
				t.Fatalf("node %d has %d fanins, k=4", ni, nd.NumIn())
			}
			for _, f := range nd.Fanins {
				if f >= nw.NumPI+ni {
					t.Fatalf("node %d fanin %d not topological", ni, f)
				}
			}
		}
	}
}

func TestFromAIGConstantsAndPassthrough(t *testing.T) {
	g := aig.New(2)
	g.AddPO(aig.ConstFalse)
	g.AddPO(aig.ConstTrue)
	g.AddPO(g.PI(0))
	g.AddPO(g.PI(1).Not())
	nw, err := network.FromAIG(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, g, nw)
	if nw.NumNodes() != 1 {
		t.Fatalf("expected one inverter node, got %d", nw.NumNodes())
	}
}

func TestFromAIGRejectsBadK(t *testing.T) {
	g := aig.New(2)
	g.AddPO(g.And(g.PI(0), g.PI(1)))
	if _, err := network.FromAIG(g, 1); err == nil {
		t.Fatal("k=1 accepted")
	}
	if _, err := network.FromAIG(g, network.MaxFanins+1); err == nil {
		t.Fatal("k too large accepted")
	}
}

func TestPOFunctionMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(142))
	g := synthAIG(t, rng, 6, 2)
	nw, err := network.FromAIG(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	pf := nw.POFunction()
	for m := uint(0); m < 64; m++ {
		ev := nw.Eval(m)
		for o := range ev {
			if ev[o] != (pf.Phase(o, int(m)) == tt.On) {
				t.Fatalf("POFunction disagrees with Eval at %d out %d", m, o)
			}
		}
	}
}

func TestLocalSpecDCsAreSafe(t *testing.T) {
	// Binding local DC rows arbitrarily must never change the POs.
	rng := rand.New(rand.NewSource(143))
	g := synthAIG(t, rng, 6, 2)
	nw, err := network.FromAIG(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	before := nw.POFunction()
	for ni := range nw.Nodes {
		spec := nw.LocalSpec(ni)
		// Flip the node's output at every DC row to the opposite of its
		// current value — the most adversarial safe rewrite.
		tbl := nw.Nodes[ni].Table.Clone()
		spec.Outs[0].DC.ForEach(func(row int) {
			if tbl.Test(row) {
				tbl.Clear(row)
			} else {
				tbl.Set(row)
			}
		})
		old := nw.Nodes[ni].Table
		nw.Nodes[ni].Table = tbl
		after := nw.POFunction()
		if !after.Equal(before) {
			t.Fatalf("binding DC rows of node %d changed the circuit", ni)
		}
		nw.Nodes[ni].Table = old
	}
}

func TestReassignLCFPreservesFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(144))
	for trial := 0; trial < 4; trial++ {
		g := synthAIG(t, rng, 6, 2)
		nw, err := network.FromAIG(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		before := nw.POFunction()
		if _, err := nw.ReassignLCF(0.65, nil); err != nil {
			t.Fatal(err)
		}
		after := nw.POFunction()
		if !after.Equal(before) {
			t.Fatalf("trial %d: ReassignLCF changed the circuit function", trial)
		}
	}
}

func TestCompleteConventionalPreservesFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(145))
	g := synthAIG(t, rng, 6, 2)
	nw, err := network.FromAIG(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	before := nw.POFunction()
	if err := nw.CompleteConventionalAll(); err != nil {
		t.Fatal(err)
	}
	if !nw.POFunction().Equal(before) {
		t.Fatal("conventional completion changed the circuit function")
	}
}

func TestInternalErrorRateRange(t *testing.T) {
	rng := rand.New(rand.NewSource(146))
	g := synthAIG(t, rng, 6, 2)
	nw, err := network.FromAIG(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := nw.InternalErrorRate()
	if r < 0 || r > 1 {
		t.Fatalf("internal error rate %v outside [0,1]", r)
	}
	// The PO-driving nodes are always observable somewhere, so the rate
	// is positive for any nonconstant circuit.
	if nw.NumNodes() > 0 && r == 0 {
		t.Fatal("internal error rate 0 for nonconstant circuit")
	}
}

// Aggregate claim of the paper's nodal-decomposition extension:
// reliability-driven assignment of internal DCs reduces internal error
// propagation versus conventional-only completion.
func TestReassignImprovesInternalMaskingAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(147))
	sumConv, sumRel := 0.0, 0.0
	for trial := 0; trial < 5; trial++ {
		g := synthAIG(t, rng, 7, 2)
		nwConv, err := network.FromAIG(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		nwRel, err := network.FromAIG(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := nwConv.CompleteConventionalAll(); err != nil {
			t.Fatal(err)
		}
		if _, err := nwRel.ReassignLCF(0.7, nil); err != nil {
			t.Fatal(err)
		}
		sumConv += nwConv.InternalErrorRate()
		sumRel += nwRel.InternalErrorRate()
	}
	if sumRel > sumConv*1.02 {
		t.Fatalf("internal reassignment worsened masking: rel=%v conv=%v", sumRel, sumConv)
	}
}

func TestTotalLiteralsPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(148))
	g := synthAIG(t, rng, 6, 2)
	nw, err := network.FromAIG(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if nw.NumNodes() > 0 && nw.TotalLiterals() <= 0 {
		t.Fatal("TotalLiterals should be positive for nonempty network")
	}
}

// FromAIGInterruptible aborts with the poll's error, and with a poll
// that never fires clusters exactly as FromAIG does.
func TestFromAIGInterruptible(t *testing.T) {
	g := synthAIG(t, rand.New(rand.NewSource(16)), 10, 6)
	stop := errors.New("stop")
	if _, err := network.FromAIGInterruptible(g, 6, func() error { return stop }); !errors.Is(err, stop) {
		t.Fatalf("interrupted clustering returned %v, want %v", err, stop)
	}
	want, err := network.FromAIG(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	polls := 0
	got, err := network.FromAIGInterruptible(g, 6, func() error { polls++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if polls < 2 {
		t.Fatalf("%d polls over a %d-node graph", polls, g.NumNodes())
	}
	if len(got.Nodes) != len(want.Nodes) || !got.POFunction().Equal(want.POFunction()) {
		t.Fatalf("polled clustering differs: %d vs %d nodes", len(got.Nodes), len(want.Nodes))
	}
}

// oracleEnumerateCuts is the string-keyed enumerator enumerateCuts
// replaced: slice cuts, deduplicated on fmt.Sprint(leaves) and ranked by
// leaf count, then by the printed strings.
func oracleEnumerateCuts(g *aig.Graph, k int) [][][]int {
	total := 1 + g.NumPI() + g.NumNodes()
	const maxCuts = 10
	cuts := make([][][]int, total)
	for i := 1; i <= g.NumPI(); i++ {
		cuts[i] = [][]int{{i}}
	}
	for i := g.NumPI() + 1; i < total; i++ {
		f0, f1 := g.Fanins(i)
		seen := map[string]bool{}
		var cs [][]int
		for _, c0 := range cuts[f0.Node()] {
			for _, c1 := range cuts[f1.Node()] {
				merged := oracleMergeSorted(c0, c1, k)
				if merged == nil {
					continue
				}
				key := fmt.Sprint(merged)
				if seen[key] {
					continue
				}
				seen[key] = true
				cs = append(cs, merged)
			}
		}
		sort.SliceStable(cs, func(a, b int) bool {
			if len(cs[a]) != len(cs[b]) {
				return len(cs[a]) < len(cs[b])
			}
			return fmt.Sprint(cs[a]) < fmt.Sprint(cs[b])
		})
		if len(cs) > maxCuts {
			cs = cs[:maxCuts]
		}
		cuts[i] = append(cs, []int{i})
	}
	for i := g.NumPI() + 1; i < total; i++ {
		var cs [][]int
		for _, c := range cuts[i] {
			if !(len(c) == 1 && c[0] == i) {
				cs = append(cs, c)
			}
		}
		cuts[i] = cs
	}
	return cuts
}

func oracleMergeSorted(a, b []int, k int) []int {
	out := make([]int, 0, k)
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
		if len(out) == k {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// The value-keyed enumerator returns the oracle's cut lists, in order,
// node by node, on the synthesized AIG of every Table 1 suite spec at
// every k FromAIG accepts, 2 through 6.
func TestEnumerateCutsMatchesOracle(t *testing.T) {
	for _, s := range benchmarks.Specs() {
		f, err := benchmarks.Load(s.Name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := synth.Synthesize(f, synth.Options{})
		if err != nil {
			t.Fatal(err)
		}
		g := res.Graph
		for _, k := range []int{2, 3, 4, 5, 6} {
			got, err := network.EnumerateCuts(g, k, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := oracleEnumerateCuts(g, k)
			if len(got) != len(want) {
				t.Fatalf("%s k=%d: %d cut sets, oracle %d", s.Name, k, len(got), len(want))
			}
			for i := range want {
				var ints [][]int
				for _, c := range got[i] {
					ints = append(ints, c.Leaves.Ints())
				}
				if !reflect.DeepEqual(ints, want[i]) {
					t.Fatalf("%s k=%d node %d: cuts %v, oracle %v", s.Name, k, i, ints, want[i])
				}
			}
		}
	}
}

// oracleConeTable evaluates the cone row by row, one memoized recursion
// per truth-table row: the reference for coneTable's word-parallel
// simulation.
func oracleConeTable(g *aig.Graph, root int, leaves []int) *bitset.Set {
	size := 1 << uint(len(leaves))
	table := bitset.New(size)
	leafPos := map[int]int{}
	for i, l := range leaves {
		leafPos[l] = i
	}
	for row := 0; row < size; row++ {
		memo := map[int]bool{0: false}
		var eval func(n int) bool
		eval = func(n int) bool {
			if v, ok := memo[n]; ok {
				return v
			}
			if p, ok := leafPos[n]; ok {
				v := row>>uint(p)&1 == 1
				memo[n] = v
				return v
			}
			f0, f1 := g.Fanins(n)
			v0 := eval(f0.Node()) != f0.Compl()
			v1 := eval(f1.Node()) != f1.Compl()
			v := v0 && v1
			memo[n] = v
			return v
		}
		if eval(root) {
			table.Set(row)
		}
	}
	return table
}

// The word-parallel cone simulator agrees with the per-row evaluator on
// every cut of every AND node of each Table 1 suite spec's synthesized
// AIG, at k = 2, 4 and 6.
func TestConeTableMatchesOracle(t *testing.T) {
	for _, s := range benchmarks.Specs() {
		if testing.Short() && (s.Name == "random1" || s.Name == "random2") {
			continue
		}
		f, err := benchmarks.Load(s.Name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := synth.Synthesize(f, synth.Options{})
		if err != nil {
			t.Fatal(err)
		}
		g := res.Graph
		for _, k := range []int{2, 4, network.MaxFanins} {
			cuts, err := network.EnumerateCuts(g, k, nil)
			if err != nil {
				t.Fatal(err)
			}
			for n := g.NumPI() + 1; n < len(cuts); n++ {
				for _, c := range cuts[n] {
					leaves := c.Leaves.Ints()
					got, want := network.ConeTable(g, n, leaves), oracleConeTable(g, n, leaves)
					if !got.Equal(want) {
						t.Fatalf("%s k=%d node %d cut %v: table %s, oracle %s", s.Name, k, n, leaves, got, want)
					}
				}
			}
		}
	}
}
