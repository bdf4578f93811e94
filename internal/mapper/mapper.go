// Package mapper covers an AIG with standard cells: k-feasible cut
// enumeration, Boolean matching against the library under all input
// permutations, input negations, and output negation, and a two-phase
// dynamic program (positive/negative polarity per node) with inverter
// repair — a compact version of the mapping step Design Compiler and ABC
// perform. Delay mode minimizes arrival time; Area mode minimizes area
// flow.
package mapper

import (
	"fmt"
	"math"
	"sort"

	"relsyn/internal/aig"
	"relsyn/internal/celllib"
)

// Mode selects the optimization objective, mirroring the paper's
// delay-optimized and power/area-optimized Design Compiler runs.
type Mode int

// Mapping objectives.
const (
	Delay Mode = iota
	Area
)

func (m Mode) String() string {
	if m == Delay {
		return "delay"
	}
	return "area"
}

// Net identifies a signal: an AIG node in a polarity.
type Net struct {
	Node int
	Neg  bool
}

// Gate is one mapped cell instance.
type Gate struct {
	Cell   celllib.Cell
	Inputs []Net // per cell pin, in pin order
	Output Net
}

// Result is a mapped netlist with its metrics.
type Result struct {
	Gates      []Gate
	PONets     []Net   // net driving each primary output, in PO order
	Area       float64 // sum of cell areas
	DelayPs    float64 // critical path, ps
	Power      float64 // activity·load dynamic power + leakage (arbitrary units)
	CellCounts map[string]int
}

// GateCount returns the number of mapped cells (the paper's Table 3
// "Gates" column).
func (r *Result) GateCount() int { return len(r.Gates) }

const (
	maxCutLeaves = 4
	maxCutsPer   = 8
	wireCap      = 2.0 // fF added to every driven net
	poCap        = 2.0 // fF load on primary outputs
)

// match is one way to realize a specific function over cut leaves.
type match struct {
	cell    celllib.Cell
	pinLeaf []int  // pinLeaf[pin] = leaf position the pin connects to
	inNeg   []bool // pin polarity (true = leaf used complemented)
}

// matcher indexes matches by arity and exact truth table over the leaves.
type matcher struct {
	byArity [maxCutLeaves + 1]map[uint16][]match
}

func buildMatcher(lib *celllib.Library) *matcher {
	m := &matcher{}
	for k := 1; k <= maxCutLeaves; k++ {
		m.byArity[k] = make(map[uint16][]match)
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
					match{cell: cell, pinLeaf: pinLeaf, inNeg: inNeg})
			}
		}
	}
	return m
}

// permNegTable computes the function over leaves realized by the cell
// when pin i connects to leaf perm[i] with polarity negMask bit i.
func permNegTable(cellTable uint16, perm []int, negMask, k int) uint16 {
	var out uint16
	for row := uint(0); row < 1<<uint(k); row++ { // row bits = leaf values
		var cellRow uint
		for pin := 0; pin < k; pin++ {
			v := row>>uint(perm[pin])&1 == 1
			if negMask>>uint(pin)&1 == 1 {
				v = !v
			}
			if v {
				cellRow |= 1 << uint(pin)
			}
		}
		if cellTable>>cellRow&1 == 1 {
			out |= 1 << row
		}
	}
	return out
}

func permutations(k int) [][]int {
	if k == 0 {
		return [][]int{{}}
	}
	var out [][]int
	var rec func(cur []int, used int)
	rec = func(cur []int, used int) {
		if len(cur) == k {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := 0; i < k; i++ {
			if used>>uint(i)&1 == 0 {
				rec(append(cur, i), used|1<<uint(i))
			}
		}
	}
	rec(nil, 0)
	return out
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		c += x & 1
		x >>= 1
	}
	return c
}

// cut is a set of leaves with the root's function over them.
type cut struct {
	leaves []int // sorted AIG node indices
	table  uint16
}

// enumerateCuts returns per-node cut sets (trivial cut excluded from the
// returned matchable sets but used during merging).
func enumerateCuts(g *aig.Graph, poll func() error) ([][]cut, error) {
	total := 1 + g.NumPI() + g.NumNodes()
	// withTrivial[i] includes {i}; cuts used for matching exclude it.
	withTrivial := make([][]cut, total)
	for i := 1; i <= g.NumPI(); i++ {
		withTrivial[i] = []cut{{leaves: []int{i}, table: 0b10}}
	}
	for i := g.NumPI() + 1; i < total; i++ {
		if err := checkPoll(poll, i); err != nil {
			return nil, err
		}
		f0, f1 := g.Fanins(i)
		var cs []cut
		for _, c0 := range withTrivial[f0.Node()] {
			for _, c1 := range withTrivial[f1.Node()] {
				leaves := mergeLeaves(c0.leaves, c1.leaves)
				if leaves == nil {
					continue
				}
				t0 := expandTable(c0.table, c0.leaves, leaves)
				if f0.Compl() {
					t0 = ^t0
				}
				t1 := expandTable(c1.table, c1.leaves, leaves)
				if f1.Compl() {
					t1 = ^t1
				}
				table := t0 & t1 & rowMask(len(leaves))
				cs = append(cs, normalizeCut(cut{leaves: leaves, table: table}))
			}
		}
		cs = filterCuts(cs)
		withTrivial[i] = append(cs, cut{leaves: []int{i}, table: 0b10})
	}
	out := make([][]cut, total)
	for i := range withTrivial {
		var cs []cut
		for _, c := range withTrivial[i] {
			if !(len(c.leaves) == 1 && c.leaves[0] == i) {
				cs = append(cs, c)
			}
		}
		out[i] = cs
	}
	return out, nil
}

// pollStride is how many nodes the per-node passes visit between polls.
const pollStride = 256

// checkPoll calls poll (nil = never) once every pollStride nodes.
func checkPoll(poll func() error, node int) error {
	if poll == nil || node%pollStride != 0 {
		return nil
	}
	return poll()
}

func rowMask(k int) uint16 {
	if k >= 4 {
		return 0xffff
	}
	return uint16(1)<<uint(1<<uint(k)) - 1
}

// mergeLeaves unions two sorted leaf lists, returning nil when the union
// exceeds maxCutLeaves.
func mergeLeaves(a, b []int) []int {
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

// expandTable re-expresses a table over oldLeaves as a table over
// newLeaves (a superset).
func expandTable(t uint16, oldLeaves, newLeaves []int) uint16 {
	pos := make([]int, len(oldLeaves))
	for i, l := range oldLeaves {
		pos[i] = indexOf(newLeaves, l)
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

func indexOf(s []int, v int) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	panic("mapper: leaf not found")
}

// normalizeCut removes leaves outside the function's support.
func normalizeCut(c cut) cut {
	k := len(c.leaves)
	var kept []int
	for i := 0; i < k; i++ {
		if dependsOn(c.table, i, k) {
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
	return cut{leaves: newLeaves, table: nt}
}

func dependsOn(t uint16, v, k int) bool {
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

// filterCuts deduplicates, removes dominated cuts (supersets of another
// cut), and keeps the best few by leaf count.
func filterCuts(cs []cut) []cut {
	// Dedup by leaf signature (same leaves imply same table for a fixed
	// root function).
	seen := map[string]bool{}
	var uniq []cut
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
	var kept []cut
	for i, c := range uniq {
		dominated := false
		for j, d := range uniq {
			if i == j {
				continue
			}
			if len(d.leaves) < len(c.leaves) && subsetOf(d.leaves, c.leaves) {
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

func subsetOf(a, b []int) bool {
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

// cand is the best implementation found for one (node, phase).
type cand struct {
	arrival float64
	flow    float64
	viaInv  bool
	cut     cut
	m       match
	valid   bool
}

func better(a, b cand, mode Mode) bool {
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

// Map covers the graph with library cells under the given mode. Area
// mode iterates the covering with measured reference counts (area
// recovery); delay mode maps once.
func Map(g *aig.Graph, lib *celllib.Library, mode Mode) (*Result, error) {
	return MapInterruptible(g, lib, mode, nil)
}

// MapInterruptible is Map with a cooperative cancellation hook: poll
// (nil = never) is checked every pollStride nodes of the cut enumeration
// and of each covering round, and a non-nil return aborts the mapping
// with that error. The successful result is identical to Map's.
func MapInterruptible(g *aig.Graph, lib *celllib.Library, mode Mode, poll func() error) (*Result, error) {
	mt := buildMatcher(lib)
	cuts, err := enumerateCuts(g, poll)
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
		cands, err := runDP(g, lib, mt, cuts, mode, div, poll)
		if err != nil {
			return nil, err
		}
		res, err := extract(g, lib, cands)
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

// runDP computes the best candidate per (node, phase) with the given
// fanout divisors.
func runDP(g *aig.Graph, lib *celllib.Library, mt *matcher, cuts [][]cut, mode Mode, div []float64, poll func() error) ([][2]cand, error) {
	total := 1 + g.NumPI() + g.NumNodes()
	inv := lib.Inv

	best := make([][2]cand, total)
	for i := 1; i <= g.NumPI(); i++ {
		best[i][0] = cand{valid: true}
		best[i][1] = cand{valid: true, viaInv: true, arrival: inv.Delay, flow: inv.Area}
	}
	for i := g.NumPI() + 1; i < total; i++ {
		if err := checkPoll(poll, i); err != nil {
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
					cd := cand{valid: true, cut: c, m: m, flow: m.cell.Area, arrival: 0}
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
					if better(cd, best[i][phase], mode) {
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
				cd := cand{valid: true, viaInv: true,
					arrival: other.arrival + inv.Delay, flow: other.flow + inv.Area}
				if better(cd, best[i][phase], mode) {
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

// extract walks required nets from the POs, emits gates, and computes
// area/delay/power.
func extract(g *aig.Graph, lib *celllib.Library, best [][2]cand) (*Result, error) {
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
	probs := netProbabilities(g)
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

// netProbabilities returns a closure giving each net's signal probability
// from exhaustive simulation.
func netProbabilities(g *aig.Graph) func(Net) float64 {
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
