// Package network implements the paper's §4 "nodal decomposition"
// extension: decompose a multi-level circuit into SOP nodes (the role of
// ABC's `renode`), extract each node's satisfiability and observability
// don't-cares exactly by exhaustive bit-parallel simulation, and reassign
// those internal DCs with the complexity-factor-based algorithm to
// increase logical masking of errors *inside* the circuit.
//
// Its one simulation core works over the primary-input space, 64
// minterms per word: simulate builds one node's table, and propagate
// re-simulates only the later nodes that read a changed signal.
//
// A node's satisfiability DCs (SDCs) are local input patterns that never
// occur in fault-free operation; its observability DCs (ODCs) are primary
// input minterms where the node's value does not affect any primary
// output. Binding those patterns to the majority phase of their local
// neighbors means that when an upstream error drives the node into
// normally-unreachable territory, the node is more likely to mask it.
// Because the extracted DCs are exact, reassignment never changes the
// circuit's primary-output functions.
package network

import (
	"fmt"
	"math/bits"
	"slices"

	"relsyn/internal/aig"
	"relsyn/internal/bitset"
	"relsyn/internal/core"
	"relsyn/internal/cube"
	"relsyn/internal/espresso"
	"relsyn/internal/kcut"
	"relsyn/internal/tt"
)

// MaxFanins bounds node support so local functions stay enumerable.
const MaxFanins = 6

// Node is one SOP node: a single-output function over its fanin signals.
type Node struct {
	Fanins []int       // signal ids (see Network)
	Table  *bitset.Set // truth table over len(Fanins) inputs
}

// NumIn returns the node's fanin count.
func (nd *Node) NumIn() int { return len(nd.Fanins) }

// Network is a DAG of SOP nodes. Signal ids: 0..NumPI-1 are primary
// inputs; NumPI+i is the output of Nodes[i]. Nodes are topologically
// ordered.
type Network struct {
	NumPI int
	Nodes []Node
	POs   []int // signal ids (no complement flags: nodes absorb polarity)

	// poConst marks POs that are constant; for those, POs[i] is 0 or 1
	// reinterpreted as the constant value.
	poConst []int // -1 = normal, else constant 0/1
}

// NumNodes returns the node count.
func (nw *Network) NumNodes() int { return len(nw.Nodes) }

// POConst reports whether primary output i is constant: -1 for a normal
// output, otherwise the constant value 0 or 1.
func (nw *Network) POConst(i int) int { return nw.poConst[i] }

// AddPO appends a primary output driven by signal s. Builders outside
// this package (e.g. the BLIF reader) use it to keep the PO bookkeeping
// consistent.
func (nw *Network) AddPO(s int) {
	nw.POs = append(nw.POs, s)
	nw.poConst = append(nw.poConst, -1)
}

// FromAIG clusters the graph into k-feasible nodes (k ≤ MaxFanins) using
// cut-based covering that minimizes node count, then materializes each
// chosen cone as an SOP node. PO polarity is folded into dedicated nodes.
func FromAIG(g *aig.Graph, k int) (*Network, error) {
	return FromAIGInterruptible(g, k, nil)
}

// FromAIGInterruptible is FromAIG with a cooperative cancellation hook:
// poll (nil = never) is checked every kcut.PollStride nodes of the cut
// enumeration and of the area-flow pass, and before each PO's cone is
// built; a non-nil return aborts the clustering with that error.
func FromAIGInterruptible(g *aig.Graph, k int, poll func() error) (*Network, error) {
	if k < 2 || k > MaxFanins {
		return nil, fmt.Errorf("network: k %d outside [2,%d]", k, MaxFanins)
	}
	total := 1 + g.NumPI() + g.NumNodes()
	cuts, err := enumerateCuts(g, k, poll)
	if err != nil {
		return nil, err
	}

	// Area-flow DP: cost of implementing each AND node as one SOP node.
	type choice struct {
		cut  kcut.Leaves
		flow float64
	}
	chosen := make([]choice, total)
	fo := g.FanoutCounts()
	for i := g.NumPI() + 1; i < total; i++ {
		if err := kcut.CheckPoll(poll, i); err != nil {
			return nil, err
		}
		best := choice{flow: -1}
		for _, c := range cuts[i] {
			fl := 1.0
			for j := 0; j < c.Leaves.Len(); j++ {
				if leaf := c.Leaves.At(j); leaf > g.NumPI() {
					d := float64(fo[leaf])
					if d < 1 {
						d = 1
					}
					fl += chosen[leaf].flow / d
				}
			}
			if best.flow < 0 || fl < best.flow {
				best = choice{cut: c.Leaves, flow: fl}
			}
		}
		if best.flow < 0 {
			return nil, fmt.Errorf("network: node %d has no cuts", i)
		}
		chosen[i] = best
	}

	nw := &Network{NumPI: g.NumPI()}
	sigOf := map[int]int{} // AIG node -> signal id (positive phase)
	for i := 1; i <= g.NumPI(); i++ {
		sigOf[i] = i - 1
	}
	var build func(andNode int) int
	build = func(andNode int) int {
		if s, ok := sigOf[andNode]; ok {
			return s
		}
		leaves := chosen[andNode].cut.Ints()
		fanins := make([]int, len(leaves))
		for j, leaf := range leaves {
			if leaf <= g.NumPI() {
				fanins[j] = leaf - 1
			} else {
				fanins[j] = build(leaf)
			}
		}
		table := coneTable(g, andNode, leaves)
		nw.Nodes = append(nw.Nodes, Node{Fanins: fanins, Table: table})
		s := nw.NumPI + len(nw.Nodes) - 1
		sigOf[andNode] = s
		return s
	}

	for i := 0; i < g.NumPO(); i++ {
		if poll != nil {
			if err := poll(); err != nil {
				return nil, err
			}
		}
		l := g.PO(i)
		switch {
		case l == aig.ConstFalse:
			nw.POs = append(nw.POs, 0)
			nw.poConst = append(nw.poConst, 0)
			continue
		case l == aig.ConstTrue:
			nw.POs = append(nw.POs, 0)
			nw.poConst = append(nw.poConst, 1)
			continue
		}
		var sig int
		if l.Node() <= g.NumPI() {
			sig = l.Node() - 1
		} else {
			sig = build(l.Node())
		}
		if l.Compl() {
			// Polarity node: single-input inverter node.
			tbl := bitset.New(2)
			tbl.Set(0)
			nw.Nodes = append(nw.Nodes, Node{Fanins: []int{sig}, Table: tbl})
			sig = nw.NumPI + len(nw.Nodes) - 1
		}
		nw.POs = append(nw.POs, sig)
		nw.poConst = append(nw.poConst, -1)
	}
	return nw, nil
}

// leafSet is a cluster cut: a leaf set alone.
type leafSet = kcut.Cut[struct{}]

// enumerateCuts returns each node's k-feasible cuts: {i} for a primary
// input, and for an AND node its best maxCuts distinct non-trivial cuts
// by kcut.Compare.
func enumerateCuts(g *aig.Graph, k int, poll func() error) ([][]leafSet, error) {
	const maxCuts = 10
	trivial := func(i int) leafSet { return leafSet{Leaves: kcut.Of(i)} }
	merge := func(c0, c1 leafSet, _, _ aig.Lit) (leafSet, bool) {
		l, ok := kcut.Merge(c0.Leaves, c1.Leaves, k)
		return leafSet{Leaves: l}, ok
	}
	return kcut.Enumerate(g, maxCuts, trivial, merge, distinct, poll)
}

// distinct appends to out the first of each leaf set in cs.
func distinct(cs, out []leafSet) []leafSet {
	base := len(out)
	for _, c := range cs {
		if !slices.Contains(out[base:], c) {
			out = append(out, c)
		}
	}
	return out
}

// leafWord[i] holds cut leaf i's value on all 64 rows of a cone table:
// bit r is bit i of r.
var leafWord = [MaxFanins]uint64{
	0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
}

// coneTable computes the truth table of AIG node root over the given cut
// leaves (at most MaxFanins) by simulating the cone once, every row at
// a time: one word per node, leaf i's word being leafWord[i].
func coneTable(g *aig.Graph, root int, leaves []int) *bitset.Set {
	val := make(map[int]uint64, 4*len(leaves))
	for i, l := range leaves {
		val[l] = leafWord[i]
	}
	val[0] = 0 // the constant-false node
	var sim func(n int) uint64
	sim = func(n int) uint64 {
		if v, ok := val[n]; ok {
			return v
		}
		f0, f1 := g.Fanins(n)
		v0, v1 := sim(f0.Node()), sim(f1.Node())
		if f0.Compl() {
			v0 = ^v0
		}
		if f1.Compl() {
			v1 = ^v1
		}
		val[n] = v0 & v1
		return v0 & v1
	}
	table := bitset.New(1 << uint(len(leaves)))
	table.Words()[0] = sim(root)
	table.Trim() // rows past 2^k
	return table
}

// SignalTables simulates the network over the whole PI space, returning
// one truth table (2^NumPI bits) per signal.
func (nw *Network) SignalTables() []*bitset.Set {
	tabs, _ := nw.signalTables(nil) // nil poll: no error
	return tabs
}

// signalTables is SignalTables with poll (nil = never) run before each
// node's simulation.
func (nw *Network) signalTables(poll func() error) ([]*bitset.Set, error) {
	size := 1 << uint(nw.NumPI)
	tabs := make([]*bitset.Set, nw.NumPI+len(nw.Nodes))
	for i := 0; i < nw.NumPI; i++ {
		tabs[i] = bitset.VarPattern(size, i)
	}
	for ni := range nw.Nodes {
		if err := nw.simulateNode(tabs, ni, poll); err != nil {
			return nil, err
		}
	}
	return tabs, nil
}

// simulateNode runs poll (nil = never), then rebuilds node ni's table in
// tabs from its fanins' tables.
func (nw *Network) simulateNode(tabs []*bitset.Set, ni int, poll func() error) error {
	if poll != nil {
		if err := poll(); err != nil {
			return err
		}
	}
	nd := nw.Nodes[ni]
	tabs[nw.NumPI+ni] = nw.simulate(nd.Table.Words()[0], nd.Fanins, tabs)
	return nil
}

// simulate returns, over the PI space, the table of a node with local
// truth table tbl whose fanins carry the tables tabs[fanins[j]]: the OR,
// over tbl's on-rows r, of the AND of each fanin's words (bit j of r
// set) or their complements, 64 minterms per word.
func (nw *Network) simulate(tbl uint64, fanins []int, tabs []*bitset.Set) *bitset.Set {
	out := bitset.New(1 << uint(nw.NumPI))
	var in [MaxFanins][]uint64
	for j, f := range fanins {
		in[j] = tabs[f].Words()
	}
	for w := range out.Words() {
		var acc uint64
		for rows := tbl; rows != 0; rows &= rows - 1 {
			r := bits.TrailingZeros64(rows)
			term := ^uint64(0)
			for j := range fanins { // complemented where bit j of r is 0
				term &= in[j][w] ^ (uint64(r>>uint(j)&1) - 1)
			}
			acc |= term
		}
		out.Words()[w] = acc
	}
	out.Trim() // complemented words set the rows past 2^NumPI
	return out
}

// propagate re-simulates, in topological order, the nodes after ni that
// read a changed signal, node ni's own table in tabs having just been
// replaced. A re-simulated node whose table is unchanged stops the
// change there. poll (nil = never) runs before each re-simulation.
func (nw *Network) propagate(tabs []*bitset.Set, ni int, poll func() error) error {
	changed := make([]bool, len(tabs))
	changed[nw.NumPI+ni] = true
	for nj := ni + 1; nj < len(nw.Nodes); nj++ {
		if !slices.ContainsFunc(nw.Nodes[nj].Fanins, func(f int) bool { return changed[f] }) {
			continue
		}
		s, old := nw.NumPI+nj, tabs[nw.NumPI+nj]
		if err := nw.simulateNode(tabs, nj, poll); err != nil {
			return err
		}
		changed[s] = !tabs[s].Equal(old)
	}
	return nil
}

// Eval evaluates all POs on one PI minterm.
func (nw *Network) Eval(minterm uint) []bool {
	vals := make([]bool, nw.NumPI+len(nw.Nodes))
	for i := 0; i < nw.NumPI; i++ {
		vals[i] = minterm>>uint(i)&1 == 1
	}
	for ni, nd := range nw.Nodes {
		row := 0
		for j, f := range nd.Fanins {
			if vals[f] {
				row |= 1 << uint(j)
			}
		}
		vals[nw.NumPI+ni] = nd.Table.Test(row)
	}
	out := make([]bool, len(nw.POs))
	for i, s := range nw.POs {
		if nw.poConst[i] >= 0 {
			out[i] = nw.poConst[i] == 1
		} else {
			out[i] = vals[s]
		}
	}
	return out
}

// POFunction returns the network's PO truth tables as a tt.Function.
func (nw *Network) POFunction() *tt.Function {
	tabs := nw.SignalTables()
	f := tt.New(nw.NumPI, len(nw.POs))
	for i, s := range nw.POs {
		switch {
		case nw.poConst[i] == 0:
			// all off
		case nw.poConst[i] == 1:
			f.Outs[i].On.FillAll()
		default:
			f.Outs[i].On.Copy(tabs[s])
		}
	}
	return f
}

// odcMask returns, for node ni, the set of PI minterms where
// complementing the node's output leaves every PO unchanged. poll
// (nil = never) runs before each downstream node's resimulation.
func (nw *Network) odcMask(tabs []*bitset.Set, ni int, poll func() error) (*bitset.Set, error) {
	alt := slices.Clone(tabs)
	alt[nw.NumPI+ni] = tabs[nw.NumPI+ni].Complement()
	if err := nw.propagate(alt, ni, poll); err != nil {
		return nil, err
	}
	diff := bitset.New(1 << uint(nw.NumPI))
	for i, s := range nw.POs {
		if nw.poConst[i] >= 0 {
			continue
		}
		d := alt[s].Clone()
		d.InPlaceSymDiff(tabs[s])
		diff.InPlaceUnion(d)
	}
	return diff.Complement(), nil
}

// LocalSpec builds node ni's local function with its exact internal
// don't-cares: local patterns that never occur (SDC) or whose occurrences
// are all output-insensitive (ODC) become DC.
func (nw *Network) LocalSpec(ni int) *tt.Function {
	spec, _ := nw.localSpec(nw.SignalTables(), ni, nil) // nil poll: no error
	return spec
}

// localSpec is LocalSpec on the signal tables tabs, passing poll to
// odcMask. Row r is a DC iff the minterms where it occurs lie inside the
// ODC mask; none at all makes it an SDC.
func (nw *Network) localSpec(tabs []*bitset.Set, ni int, poll func() error) (*tt.Function, error) {
	nd := nw.Nodes[ni]
	odc, err := nw.odcMask(tabs, ni, poll)
	if err != nil {
		return nil, err
	}
	spec := tt.New(nd.NumIn(), 1)
	for row := 0; row < spec.Size(); row++ {
		switch {
		case nw.simulate(1<<uint(row), nd.Fanins, tabs).SubsetOf(odc):
			spec.SetPhase(0, row, tt.DC)
		case nd.Table.Test(row):
			spec.SetPhase(0, row, tt.On)
		}
	}
	return spec, nil
}

// ReassignLCF rewrites every node's function: extract exact internal DCs,
// bind those with local complexity factor below threshold to the majority
// neighbor phase (paper Fig. 7 applied to internal DCs), and complete the
// rest with espresso minimization (conventional assignment). Nodes are
// processed in topological order with DCs re-extracted after each change
// (the signal tables are built once, then each rewrite re-simulates its
// changed fanout), so the primary-output functions are preserved
// exactly. It returns the number of DC patterns bound for reliability.
// poll (nil = never) runs before every node simulation, many times per
// node; a non-nil return stops the rewrite with that error, leaving the
// nodes already rewritten in place.
func (nw *Network) ReassignLCF(threshold float64, poll func() error) (int, error) {
	tabs, err := nw.signalTables(poll)
	if err != nil {
		return 0, err
	}
	assigned := 0
	for ni := range nw.Nodes {
		spec, err := nw.localSpec(tabs, ni, poll)
		if err != nil {
			return assigned, err
		}
		res, err := core.LCF(spec, threshold, core.Options{})
		if err != nil {
			return assigned, err
		}
		assigned += len(res.Assigned)
		nw.Nodes[ni].Table = completeConventional(res.Func)
		if err := nw.simulateNode(tabs, ni, poll); err != nil {
			return assigned, err
		}
		if err := nw.propagate(tabs, ni, poll); err != nil {
			return assigned, err
		}
	}
	return assigned, nil
}

// CompleteConventionalAll rewrites every node by espresso-minimizing its
// local function against its internal DCs (conventional assignment only)
// — the baseline ReassignLCF is compared against.
func (nw *Network) CompleteConventionalAll() error {
	tabs := nw.SignalTables()
	for ni := range nw.Nodes {
		spec, _ := nw.localSpec(tabs, ni, nil) // nil poll: no error
		nw.Nodes[ni].Table = completeConventional(spec)
		_ = nw.simulateNode(tabs, ni, nil) // nil poll: no error
		_ = nw.propagate(tabs, ni, nil)    // nil poll: no error
	}
	return nil
}

// completeConventional spends remaining DCs via espresso and returns the
// completely specified table.
func completeConventional(spec *tt.Function) *bitset.Set {
	cov, _ := espresso.MinimizeSets(spec.NumIn, spec.Outs[0].On, spec.Outs[0].DC, nil) // nil poll: no error
	table := bitset.New(spec.Size())
	for m := 0; m < spec.Size(); m++ {
		if cov.ContainsMinterm(uint(m)) {
			table.Set(m)
		}
	}
	return table
}

// InternalErrorRate measures the fraction of (node, PI minterm) events —
// a single erroneous node output under an otherwise-correct input — that
// propagate to at least one primary output. Lower is more resilient.
func (nw *Network) InternalErrorRate() float64 {
	if len(nw.Nodes) == 0 {
		return 0
	}
	tabs := nw.SignalTables()
	size := 1 << uint(nw.NumPI)
	propagating := 0
	for ni := range nw.Nodes {
		odc, _ := nw.odcMask(tabs, ni, nil) // nil poll: no error
		propagating += size - odc.Count()
	}
	return float64(propagating) / float64(len(nw.Nodes)*size)
}

// InputErrorRate measures the fraction of (node, fanin wire, PI minterm)
// events — a single erroneous value on one fanin wire of one node under
// an otherwise-correct input — that propagate to a primary output. This
// is the node-granular analogue of the paper's input-error model and the
// quantity LC^f reassignment of internal DCs directly targets: an error
// arriving at a node is masked when the node's (possibly reassigned)
// local function gives the same output for the erroneous pattern.
func (nw *Network) InputErrorRate() float64 {
	if len(nw.Nodes) == 0 {
		return 0
	}
	tabs := nw.SignalTables()
	size := 1 << uint(nw.NumPI)
	propagating, events := 0, 0
	for ni, nd := range nw.Nodes {
		odc, _ := nw.odcMask(tabs, ni, nil) // nil poll: no error
		for b := 0; b < nd.NumIn(); b++ {
			events += size
			// Rows the node does not mask a flip of fanin b on.
			flip := nd.Table.ShiftNeighbor(b)
			flip.InPlaceSymDiff(nd.Table)
			sens := nw.simulate(flip.Words()[0], nd.Fanins, tabs)
			propagating += sens.Count() - sens.IntersectionCount(odc)
		}
	}
	return float64(propagating) / float64(events)
}

// TotalLiterals sums espresso-minimized SOP literals over all nodes, the
// customary technology-independent area proxy for SOP networks.
func (nw *Network) TotalLiterals() int {
	total := 0
	for _, nd := range nw.Nodes {
		cov := nd.MinCover()
		total += cov.LiteralCount()
	}
	return total
}

// MinCover returns the espresso-minimized cover of the node's on-set
// over its local inputs.
func (nd Node) MinCover() *cube.Cover {
	cov, _ := espresso.MinimizeSets(nd.NumIn(), nd.Table, nil, nil) // nil poll: no error
	return cov
}
