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
	"math/bits"
	"slices"
	"sync"

	"relsyn/internal/aig"
	"relsyn/internal/celllib"
	"relsyn/internal/kcut"
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
	pinLeaf [maxCutLeaves]uint8 // pinLeaf[pin] = leaf position the pin connects to
	inNeg   uint8               // bit pin set = leaf used complemented at that pin
}

// pinNeg returns the leaf phase pin reads (0 positive, 1 complemented).
func (m *match) pinNeg(pin int) int { return int(m.inNeg >> uint(pin) & 1) }

// matcher indexes matches by arity and exact truth table over the
// leaves, in library cell order.
type matcher struct {
	byArity [maxCutLeaves + 1]matchIndex
}

// matchIndex finds the matches of a k-leaf table in O(1) with a few KB
// per arity: bit t of has is set when table t has matches, and the
// matches of the i-th such table (in table order) are
// matches[start[i]:start[i+1]]. rank[w] counts the set bits of
// has[:w], so i is rank plus a popcount within the word.
type matchIndex struct {
	has     []uint64
	rank    []uint32
	start   []uint32
	matches []match
}

// lookup returns the matches realizing table over k leaves (table holds
// no bits above row 2^k-1).
func (m *matcher) lookup(k int, table uint16) []match {
	ix := &m.byArity[k]
	w, b := table>>6, table&63
	word := ix.has[w]
	if word>>b&1 == 0 {
		return nil
	}
	i := ix.rank[w] + uint32(bits.OnesCount64(word&(1<<b-1)))
	return ix.matches[ix.start[i]:ix.start[i+1]]
}

// matchers caches one matcher per library. A Library is immutable, so a
// matcher built on its first Map call serves every later call for the
// life of the process, and callers mapping with different libraries
// never see each other's entries. Entries are never evicted: a process
// maps with a handful of libraries (in practice celllib.Generic70).
var matchers = struct {
	sync.Mutex
	byLib map[*celllib.Library]*matcher
}{byLib: map[*celllib.Library]*matcher{}}

// matcherFor returns lib's matcher, building it on first use.
func matcherFor(lib *celllib.Library) *matcher {
	matchers.Lock()
	defer matchers.Unlock()
	m := matchers.byLib[lib]
	if m == nil {
		m = buildMatcher(lib)
		matchers.byLib[lib] = m
	}
	return m
}

func buildMatcher(lib *celllib.Library) *matcher {
	var byArity [maxCutLeaves + 1]map[uint16][]match
	for k := 1; k <= maxCutLeaves; k++ {
		byArity[k] = make(map[uint16][]match)
	}
	for _, cell := range lib.Cells {
		k := cell.NumIn
		if k > maxCutLeaves {
			continue
		}
		type key struct {
			table  uint16
			negCnt int
		}
		seen := map[key]bool{}
		for _, perm := range permutations(k) {
			for negMask := 0; negMask < 1<<uint(k); negMask++ {
				table := permNegTable(cell.Table, perm, negMask, k)
				kk := key{table, popcount(negMask)}
				if seen[kk] {
					continue
				}
				seen[kk] = true
				mt := match{cell: cell, inNeg: uint8(negMask)}
				for pin := 0; pin < k; pin++ {
					mt.pinLeaf[pin] = uint8(perm[pin])
				}
				byArity[k][table] = append(byArity[k][table], mt)
			}
		}
	}
	m := &matcher{}
	for k := 1; k <= maxCutLeaves; k++ {
		ix := &m.byArity[k]
		words := (1<<(1<<uint(k)) + 63) / 64
		ix.has = make([]uint64, words)
		ix.rank = make([]uint32, words)
		ix.start = []uint32{0}
		for t := 0; t < 1<<(1<<uint(k)); t++ {
			if t%64 == 0 && t > 0 {
				ix.rank[t/64] = uint32(len(ix.start) - 1)
			}
			if ms := byArity[k][uint16(t)]; len(ms) > 0 {
				ix.has[t/64] |= 1 << uint(t%64)
				ix.matches = append(ix.matches, ms...)
				ix.start = append(ix.start, uint32(len(ix.matches)))
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

// cut is a set of at most maxCutLeaves leaves with the root's function
// over them. It is a value: merging, normalizing, deduplicating and
// copying cuts never allocates.
type cut = kcut.Cut[cutFunc]

// cutFunc is what a cut carries beside its leaves: the root's function
// over them.
type cutFunc struct {
	table uint16
}

// trivialCut is {i} with the identity function.
func trivialCut(i int) cut {
	return cut{Leaves: kcut.Of(i), Data: cutFunc{table: 0b10}}
}

// enumerateCuts returns each AND node's matchable cuts, at most
// maxCutsPer; a primary input, which is never mapped, has none.
func enumerateCuts(g *aig.Graph, poll func() error) ([][]cut, error) {
	cuts, err := kcut.Enumerate(g, maxCutLeaves, maxCutsPer, trivialCut, mergeCuts, filterCuts, poll)
	if err != nil {
		return nil, err
	}
	clear(cuts[1 : g.NumPI()+1])
	return cuts, nil
}

// mergeCuts returns the cut of an AND node with fanins f0 and f1 that
// joins cut c0 of f0 and c1 of f1, normalized to the function's support,
// or false when it has more than maxCutLeaves leaves.
func mergeCuts(c0, c1 cut, f0, f1 aig.Lit) (cut, bool) {
	leaves, ok := kcut.Merge(c0.Leaves, c1.Leaves, maxCutLeaves)
	if !ok {
		return cut{}, false
	}
	t0 := expandTable(c0.Data.table, c0.Leaves, leaves)
	if f0.Compl() {
		t0 = ^t0
	}
	t1 := expandTable(c1.Data.table, c1.Leaves, leaves)
	if f1.Compl() {
		t1 = ^t1
	}
	table := t0 & t1 & rowMask(leaves.Len())
	return normalizeCut(cut{Leaves: leaves, Data: cutFunc{table: table}}), true
}

func rowMask(k int) uint16 {
	if k >= 4 {
		return 0xffff
	}
	return uint16(1)<<uint(1<<uint(k)) - 1
}

// varRows[v] holds the rows of a 4-input table in which variable v is 1.
var varRows = [maxCutLeaves]uint16{0xaaaa, 0xcccc, 0xf0f0, 0xff00}

// swapVars exchanges variables i < j of a 4-input table.
func swapVars(t uint16, i, j int) uint16 {
	up := varRows[i] &^ varRows[j] // rows with i=1, j=0
	shift := uint(1)<<uint(j) - uint(1)<<uint(i)
	return t&^(up|up<<shift) | (t&up)<<shift | t>>shift&up
}

// expandTable re-expresses a table over oldLeaves as a table over
// newLeaves (a superset). It replicates the table across all 16 rows,
// so the variables from oldLeaves.Len() up are don't-cares, then moves
// each old variable, highest first, up to its position in newLeaves by
// swapping it with the don't-care there.
func expandTable(t uint16, oldLeaves, newLeaves kcut.Leaves) uint16 {
	k := oldLeaves.Len()
	t &= rowMask(k)
	for w := uint(1) << uint(k); w < 16; w <<= 1 {
		t |= t << w
	}
	for i := k - 1; i >= 0; i-- {
		if j := newLeaves.Index(oldLeaves.At(i)); j != i {
			t = swapVars(t, i, j)
		}
	}
	return t & rowMask(newLeaves.Len())
}

// normalizeCut removes leaves outside the function's support. It moves
// the kept variables down, lowest first, each by a swap with a variable
// the table does not depend on.
func normalizeCut(c cut) cut {
	k := c.Leaves.Len()
	var keptMask uint
	for v := 0; v < k; v++ {
		if dependsOn(c.Data.table, v, k) {
			keptMask |= 1 << uint(v)
		}
	}
	if keptMask == 1<<uint(k)-1 {
		return c
	}
	t, nk := c.Data.table, 0
	for m := keptMask; m != 0; m &= m - 1 {
		if v := bits.TrailingZeros(m); v != nk {
			t = swapVars(t, nk, v)
		}
		nk++
	}
	return cut{Leaves: c.Leaves.Select(keptMask), Data: cutFunc{table: t & rowMask(nk)}}
}

// dependsOn reports whether a table over k leaves depends on variable
// v < k: whether some row with v = 0 differs from its v = 1 partner.
func dependsOn(t uint16, v, k int) bool {
	return (t^t>>(1<<uint(v)))&^varRows[v]&rowMask(k) != 0
}

// filterCuts appends to out the cuts of cs worth keeping: it drops
// constant-function cuts, duplicates (same leaves imply same table for a
// fixed root function) and dominated cuts (strict supersets of another
// cut). cs is reordered in place. Signatures are compared before leaves.
func filterCuts(cs, out []cut) []cut {
	uniq := cs[:0]
	for _, c := range cs {
		if c.Leaves.Len() == 0 || slices.ContainsFunc(uniq, func(u cut) bool { return u.Leaves.Sig() == c.Leaves.Sig() && u.Leaves == c.Leaves }) {
			continue
		}
		uniq = append(uniq, c)
	}
	for _, c := range uniq {
		if !slices.ContainsFunc(uniq, func(d cut) bool {
			return d.Leaves.Sig()&^c.Leaves.Sig() == 0 && d.Leaves.Len() < c.Leaves.Len() && d.Leaves.SubsetOf(c.Leaves)
		}) {
			out = append(out, c)
		}
	}
	return out
}

// cand is the best implementation found for one (node, phase). cut and m
// point into the node's cut set and the library's matcher.
type cand struct {
	arrival float64
	flow    float64
	cut     *cut
	m       *match
	viaInv  bool
	valid   bool
}

func better(a, b *cand, mode Mode) bool {
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
// recovery, at most three rounds, ending early once a round's reference
// counts repeat its divisors); delay mode maps once.
func Map(g *aig.Graph, lib *celllib.Library, mode Mode) (*Result, error) {
	return MapInterruptible(g, lib, mode, nil)
}

// MapInterruptible is Map with a cooperative cancellation hook: poll
// (nil = never) is checked every kcut.PollStride nodes of the cut
// enumeration and of each covering round, and a non-nil return aborts
// the mapping with that error. The successful result is identical to Map's.
func MapInterruptible(g *aig.Graph, lib *celllib.Library, mode Mode, poll func() error) (*Result, error) {
	mt := matcherFor(lib)
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
	probs := nodeProbabilities(g)
	var bestRes *Result
	for r := 0; r < rounds; r++ {
		cands, err := runDP(g, lib, mt, cuts, mode, div, poll)
		if err != nil {
			return nil, err
		}
		res, err := extract(g, lib, cands, probs)
		if err != nil {
			return nil, err
		}
		if bestRes == nil ||
			(mode == Area && res.Area < bestRes.Area) ||
			(mode == Delay && res.DelayPs < bestRes.DelayPs) {
			bestRes = res
		}
		// A round whose cover's counts repeat its divisors would be
		// repeated exactly by the next.
		if r == rounds-1 || !refineDivisors(g, res, div) {
			break
		}
	}
	return bestRes, nil
}

// refineDivisors sets div to the reference counts of res's cover (at
// least 1) and reports whether any divisor changed.
func refineDivisors(g *aig.Graph, res *Result, div []float64) bool {
	refs := make([]float64, len(div))
	for _, gt := range res.Gates {
		for _, in := range gt.Inputs {
			refs[in.Node]++
		}
	}
	for i := 0; i < g.NumPO(); i++ {
		refs[g.PO(i).Node()]++
	}
	changed := false
	for i, r := range refs {
		r = max(r, 1)
		if div[i] != r {
			div[i] = r
			changed = true
		}
	}
	return changed
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
		if err := kcut.CheckPoll(poll, i); err != nil {
			return nil, err
		}
		bi := &best[i]
		cs := cuts[i]
		for ci := range cs {
			c := &cs[ci]
			k := c.Leaves.Len()
			for phase := 0; phase < 2; phase++ {
				table := c.Data.table
				if phase == 1 {
					table = ^table & rowMask(k)
				}
				ms := mt.lookup(k, table)
				for mi := range ms {
					m := &ms[mi]
					cd := cand{valid: true, cut: c, m: m, flow: m.cell.Area}
					feasible := true
					for pin := 0; pin < k; pin++ {
						leaf := c.Leaves.At(int(m.pinLeaf[pin]))
						lb := &best[leaf][m.pinNeg(pin)]
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
					if better(&cd, &bi[phase], mode) {
						bi[phase] = cd
					}
				}
			}
		}
		// Inverter repair, both directions, two rounds for stability.
		for round := 0; round < 2; round++ {
			for phase := 0; phase < 2; phase++ {
				other := &bi[1-phase]
				if !other.valid {
					continue
				}
				cd := cand{valid: true, viaInv: true,
					arrival: other.arrival + inv.Delay, flow: other.flow + inv.Area}
				if better(&cd, &bi[phase], mode) {
					bi[phase] = cd
				}
			}
		}
		if !bi[0].valid || !bi[1].valid {
			return nil, fmt.Errorf("mapper: node %d unmatchable in some phase", i)
		}
	}
	return best, nil
}

// netIndex addresses per-net slices: node-major, positive phase first —
// the order the power sum walks nets in.
func netIndex(n Net) int {
	if n.Neg {
		return 2*n.Node + 1
	}
	return 2 * n.Node
}

// netState is extract's bookkeeping for one net.
type netState struct {
	arrival float64
	load    float64 // input capacitance the net drives
	emitted bool
	loaded  bool // drives a gate input or a primary output
}

// extract walks required nets from the POs, emits gates, and computes
// area/delay/power. probs[node] is the node's signal probability.
func extract(g *aig.Graph, lib *celllib.Library, best [][2]cand, probs []float64) (*Result, error) {
	res := &Result{CellCounts: map[string]int{}}
	nets := make([]netState, 2*len(best))
	inv := lib.Inv
	// Gate inputs are carved from shared slabs, not allocated per gate.
	var slab []Net
	inputs := func(k int) []Net {
		if cap(slab)-len(slab) < k {
			slab = make([]Net, 0, 256)
		}
		n := len(slab)
		slab = slab[:n+k]
		return slab[n : n+k : n+k]
	}

	var emit func(net Net) error
	emit = func(net Net) error {
		s := &nets[netIndex(net)]
		if s.emitted {
			return nil
		}
		s.emitted = true
		if net.Node == 0 || (net.Node <= g.NumPI() && !net.Neg) {
			// Constant or primary input net: no gate; arrival 0.
			return nil
		}
		phase := 0
		if net.Neg {
			phase = 1
		}
		b := &best[net.Node][phase]
		if !b.valid {
			return fmt.Errorf("mapper: no implementation for net %+v", net)
		}
		if b.viaInv {
			src := Net{Node: net.Node, Neg: !net.Neg}
			if err := emit(src); err != nil {
				return err
			}
			ins := inputs(1)
			ins[0] = src
			res.Gates = append(res.Gates, Gate{Cell: inv, Inputs: ins, Output: net})
			res.CellCounts[inv.Name]++
			s.arrival = nets[netIndex(src)].arrival + inv.Delay
			return nil
		}
		k := b.m.cell.NumIn
		ins := inputs(k)
		worst := 0.0
		for pin := 0; pin < k; pin++ {
			leaf := b.cut.Leaves.At(int(b.m.pinLeaf[pin]))
			in := Net{Node: leaf, Neg: b.m.pinNeg(pin) == 1}
			if err := emit(in); err != nil {
				return err
			}
			ins[pin] = in
			if a := nets[netIndex(in)].arrival; a > worst {
				worst = a
			}
		}
		res.Gates = append(res.Gates, Gate{Cell: b.m.cell, Inputs: ins, Output: net})
		res.CellCounts[b.m.cell.Name]++
		s.arrival = worst + b.m.cell.Delay
		return nil
	}

	poNets := make([]Net, g.NumPO())
	for i := 0; i < g.NumPO(); i++ {
		l := g.PO(i)
		net := Net{Node: l.Node(), Neg: l.Compl()}
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
		if a := nets[netIndex(net)].arrival; a > res.DelayPs {
			res.DelayPs = a
		}
	}
	// Dynamic power: activity × capacitive load per net, summed in net
	// index order.
	for _, gt := range res.Gates {
		for _, in := range gt.Inputs {
			s := &nets[netIndex(in)]
			s.load += gt.Cell.InputCap
			s.loaded = true
		}
	}
	for _, net := range poNets {
		s := &nets[netIndex(net)]
		s.load += poCap
		s.loaded = true
	}
	for i := range nets {
		s := &nets[i]
		if !s.loaded {
			continue
		}
		p := probs[i/2]
		if i%2 == 1 {
			p = 1 - p
		}
		res.Power += 2 * p * (1 - p) * (s.load + wireCap)
	}
	if math.IsNaN(res.Power) {
		return nil, fmt.Errorf("mapper: power computation produced NaN")
	}
	return res, nil
}

// nodeProbabilities returns each node's signal probability (positive
// phase) from exhaustive simulation.
func nodeProbabilities(g *aig.Graph) []float64 {
	counts := g.NodeOnCounts()
	size := float64(int(1) << uint(g.NumPI()))
	probs := make([]float64, len(counts))
	for i, c := range counts {
		probs[i] = float64(c) / size
	}
	return probs
}
