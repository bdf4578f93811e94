package network_test

import (
	"fmt"
	"math/rand"
	"testing"

	"relsyn/internal/benchmarks"
	"relsyn/internal/bitset"
	"relsyn/internal/core"
	"relsyn/internal/network"
	"relsyn/internal/synth"
	"relsyn/internal/tt"
)

// The oracles below are the exhaustive engine's bit-serial reference:
// every signal table, ODC mask and local specification is built one PI
// minterm and one fanin at a time, and the reassignment rebuilds every
// signal table before each node. They are the word-space core's
// differential reference and are far too slow to serve.

// oracleLocalRow extracts node nd's local input pattern at PI minterm m.
func oracleLocalRow(tabs []*bitset.Set, nd network.Node, m int) int {
	row := 0
	for j, f := range nd.Fanins {
		if tabs[f].Test(m) {
			row |= 1 << uint(j)
		}
	}
	return row
}

// oracleSignalTables simulates the network minterm by minterm.
func oracleSignalTables(nw *network.Network) []*bitset.Set {
	size := 1 << uint(nw.NumPI)
	tabs := make([]*bitset.Set, nw.NumPI+len(nw.Nodes))
	for i := 0; i < nw.NumPI; i++ {
		tabs[i] = bitset.VarPattern(size, i)
	}
	for ni, nd := range nw.Nodes {
		out := bitset.New(size)
		for m := 0; m < size; m++ {
			if nd.Table.Test(oracleLocalRow(tabs, nd, m)) {
				out.Set(m)
			}
		}
		tabs[nw.NumPI+ni] = out
	}
	return tabs
}

// oracleODCMask complements node ni and re-simulates, minterm by
// minterm, every later node with a changed fanin; it returns the PI
// minterms where no PO changed.
func oracleODCMask(nw *network.Network, tabs []*bitset.Set, ni int) *bitset.Set {
	size := 1 << uint(nw.NumPI)
	alt := make([]*bitset.Set, len(tabs))
	copy(alt, tabs)
	alt[nw.NumPI+ni] = tabs[nw.NumPI+ni].Complement()
	for nj := ni + 1; nj < len(nw.Nodes); nj++ {
		nd := nw.Nodes[nj]
		changed := false
		for _, f := range nd.Fanins {
			if !alt[f].Equal(tabs[f]) {
				changed = true
				break
			}
		}
		if !changed {
			continue
		}
		out := bitset.New(size)
		for m := 0; m < size; m++ {
			if nd.Table.Test(oracleLocalRow(alt, nd, m)) {
				out.Set(m)
			}
		}
		alt[nj+nw.NumPI] = out
	}
	diff := bitset.New(size)
	for i, s := range nw.POs {
		if nw.POConst(i) >= 0 {
			continue
		}
		d := alt[s].Clone()
		d.InPlaceSymDiff(tabs[s])
		diff.InPlaceUnion(d)
	}
	return diff.Complement()
}

// oracleODCMasks returns every node's ODC mask.
func oracleODCMasks(nw *network.Network, tabs []*bitset.Set) []*bitset.Set {
	odcs := make([]*bitset.Set, len(nw.Nodes))
	for ni := range nw.Nodes {
		odcs[ni] = oracleODCMask(nw, tabs, ni)
	}
	return odcs
}

// oracleLocalSpec marks a local row DC when it never occurs or every
// minterm where it occurs is in node ni's ODC mask odc.
func oracleLocalSpec(nw *network.Network, tabs []*bitset.Set, odc *bitset.Set, ni int) *tt.Function {
	nd := nw.Nodes[ni]
	k := nd.NumIn()
	size := 1 << uint(nw.NumPI)
	occurs := make([]bool, 1<<uint(k))
	sensitive := make([]bool, 1<<uint(k))
	for m := 0; m < size; m++ {
		row := oracleLocalRow(tabs, nd, m)
		occurs[row] = true
		if !odc.Test(m) {
			sensitive[row] = true
		}
	}
	spec := tt.New(k, 1)
	for row := 0; row < 1<<uint(k); row++ {
		switch {
		case !occurs[row] || !sensitive[row]:
			spec.SetPhase(0, row, tt.DC)
		case nd.Table.Test(row):
			spec.SetPhase(0, row, tt.On)
		}
	}
	return spec
}

// oracleInternalErrorRate counts, node by node, the minterms outside
// the node's ODC mask.
func oracleInternalErrorRate(nw *network.Network, odcs []*bitset.Set) float64 {
	if len(nw.Nodes) == 0 {
		return 0
	}
	size := 1 << uint(nw.NumPI)
	propagating := 0
	for _, odc := range odcs {
		propagating += size - odc.Count()
	}
	return float64(propagating) / float64(len(nw.Nodes)*size)
}

// oracleInputErrorRate counts, minterm by minterm, the fanin flips that
// change a node's output outside its ODC mask.
func oracleInputErrorRate(nw *network.Network, tabs, odcs []*bitset.Set) float64 {
	if len(nw.Nodes) == 0 {
		return 0
	}
	size := 1 << uint(nw.NumPI)
	propagating, events := 0, 0
	for ni, nd := range nw.Nodes {
		for b := 0; b < nd.NumIn(); b++ {
			events += size
			for m := 0; m < size; m++ {
				row := oracleLocalRow(tabs, nd, m)
				if nd.Table.Test(row) == nd.Table.Test(row^(1<<uint(b))) {
					continue
				}
				if !odcs[ni].Test(m) {
					propagating++
				}
			}
		}
	}
	return float64(propagating) / float64(events)
}

// oracleReassignLCF rebuilds every signal table before each node.
func oracleReassignLCF(nw *network.Network, threshold float64) (int, error) {
	assigned := 0
	for ni := range nw.Nodes {
		n, table, err := oracleReassignStep(nw, ni, threshold)
		if err != nil {
			return assigned, err
		}
		assigned += n
		nw.Nodes[ni].Table = table
	}
	return assigned, nil
}

// oracleReassignStep is one node of oracleReassignLCF: the number of DC
// patterns bound at node ni and its rewritten table.
func oracleReassignStep(nw *network.Network, ni int, threshold float64) (int, *bitset.Set, error) {
	tabs := oracleSignalTables(nw)
	spec := oracleLocalSpec(nw, tabs, oracleODCMask(nw, tabs, ni), ni)
	res, err := core.LCF(spec, threshold, core.Options{})
	if err != nil {
		return 0, nil, err
	}
	return len(res.Assigned), network.CompleteConventional(res.Func), nil
}

// oracleCase is one network the differential test runs.
type oracleCase struct {
	name string
	nw   *network.Network
}

// randomNetwork draws a network of numPI inputs and nodes nodes with
// one to three fanins each, random local functions, and two primary
// outputs driven by the last two nodes.
func randomNetwork(rng *rand.Rand, numPI, nodes int) *network.Network {
	nw := &network.Network{NumPI: numPI}
	for ni := 0; ni < nodes; ni++ {
		sigs := rng.Perm(numPI + ni)
		fanins := sigs[:1+rng.Intn(min(3, len(sigs)))]
		table := bitset.New(1 << uint(len(fanins)))
		table.Words()[0] = rng.Uint64()
		table.Trim()
		nw.Nodes = append(nw.Nodes, network.Node{Fanins: fanins, Table: table})
	}
	nw.AddPO(numPI + nodes - 1)
	nw.AddPO(numPI + nodes - 2)
	return nw
}

// oracleCases decomposes every Table 1 suite spec at k=4, the specs of at
// most 8 inputs also at k=2 and k=6, seeded random functions of 1–5
// inputs (partial simulation words) at k=2 and k=4, and seeded random
// networks of 2–5 inputs.
func oracleCases(t *testing.T) []oracleCase {
	t.Helper()
	var cases []oracleCase
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
		ks := []int{4}
		if s.Inputs <= 8 {
			ks = []int{2, 4, network.MaxFanins}
		}
		for _, k := range ks {
			nw, err := network.FromAIG(res.Graph, k)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, oracleCase{fmt.Sprintf("%s/k=%d", s.Name, k), nw})
		}
	}
	rng := rand.New(rand.NewSource(148))
	for n := 1; n <= 5; n++ {
		for trial := 0; trial < 3; trial++ {
			g := synthAIG(t, rng, n, 3)
			for _, k := range []int{2, 4} {
				nw, err := network.FromAIG(g, k)
				if err != nil {
					t.Fatal(err)
				}
				cases = append(cases, oracleCase{fmt.Sprintf("rand%d.%d/k=%d", n, trial, k), nw})
			}
		}
	}
	for trial := 0; trial < 200; trial++ {
		nw := randomNetwork(rng, 2+trial%4, 3+trial%10)
		cases = append(cases, oracleCase{fmt.Sprintf("randnet%d", trial), nw})
	}
	return cases
}

// oracleFullReassignNodes is the largest network whose whole
// reassignment the test replays with the oracle. Above it (random1 and
// random2, which take minutes bit-serially) the test replays sampled
// steps instead.
const oracleFullReassignNodes = 1000

// The word-space core gives the bit-serial oracle's signal tables, local
// specifications, error rates and reassignment on every case.
func TestExhaustiveEngineMatchesOracle(t *testing.T) {
	const threshold = 0.55
	for _, c := range oracleCases(t) {
		nw := c.nw
		want := oracleSignalTables(nw)
		got := nw.SignalTables()
		for s := range want {
			if !got[s].Equal(want[s]) {
				t.Fatalf("%s: signal %d table %s, oracle %s", c.name, s, got[s], want[s])
			}
		}
		odcs := oracleODCMasks(nw, want)
		for ni := range nw.Nodes {
			if spec, ref := nw.LocalSpecOn(got, ni), oracleLocalSpec(nw, want, odcs[ni], ni); !spec.Equal(ref) {
				t.Fatalf("%s: node %d local spec differs from the oracle", c.name, ni)
			}
		}
		if got, ref := nw.InternalErrorRate(), oracleInternalErrorRate(nw, odcs); got != ref {
			t.Fatalf("%s: internal error rate %v, oracle %v", c.name, got, ref)
		}
		if got, ref := nw.InputErrorRate(), oracleInputErrorRate(nw, want, odcs); got != ref {
			t.Fatalf("%s: input error rate %v, oracle %v", c.name, got, ref)
		}
		rel := nw.Clone()
		n, err := rel.ReassignLCF(threshold, nil)
		if err != nil {
			t.Fatal(err)
		}
		if nw.NumNodes() > oracleFullReassignNodes {
			checkReassignSteps(t, c.name, nw, rel, threshold)
			continue
		}
		ref := nw.Clone()
		nRef, err := oracleReassignLCF(ref, threshold)
		if err != nil {
			t.Fatal(err)
		}
		if n != nRef {
			t.Fatalf("%s: ReassignLCF assigned %d, oracle %d", c.name, n, nRef)
		}
		for ni := range rel.Nodes {
			if !rel.Nodes[ni].Table.Equal(ref.Nodes[ni].Table) {
				t.Fatalf("%s: ReassignLCF node %d table %s, oracle %s",
					c.name, ni, rel.Nodes[ni].Table, ref.Nodes[ni].Table)
			}
		}
	}
}

// checkReassignSteps replays 16 evenly spaced steps of rel's
// reassignment of orig, the last node's included, with the oracle. The
// network before step ni is rel's first ni rewritten nodes followed by
// orig's remaining ones; the oracle's rewrite of node ni from there must
// be rel's.
func checkReassignSteps(t *testing.T, name string, orig, rel *network.Network, threshold float64) {
	t.Helper()
	last := orig.NumNodes() - 1
	for i := 0; i < 16; i++ {
		ni := last * i / 15
		before := orig.Clone()
		copy(before.Nodes[:ni], rel.Nodes[:ni])
		_, table, err := oracleReassignStep(before, ni, threshold)
		if err != nil {
			t.Fatal(err)
		}
		if !table.Equal(rel.Nodes[ni].Table) {
			t.Fatalf("%s: ReassignLCF node %d table %s, oracle %s", name, ni, rel.Nodes[ni].Table, table)
		}
	}
}
