// Package faultsim simulates mapped netlists exhaustively and
// word-parallel. Sim evaluates a netlist over all 2^n input vectors from
// its gate list and the cells' truth tables alone; the pipeline's verify
// stage checks the served circuit with it. Analyze builds single
// stuck-at fault analysis on the same simulator: for every gate output
// net and both stuck values, it measures the fraction of input vectors
// at which the fault is observable at a primary output.
//
// Fault analysis extends the paper's input-error derating story down to
// the gate level: the complement of mean observability is the circuit's
// logical masking of internal (e.g. soft-error-induced) faults, the
// quantity the cited reliability-synthesis literature optimizes. The
// experiments use it to check whether input-DC reliability assignment
// also shifts gate-level masking.
package faultsim

import (
	"fmt"
	"math/bits"

	"relsyn/internal/bitset"
	"relsyn/internal/mapper"
)

// maxInputs is the widest netlist Sim accepts: the widest truth table
// the .pla parser admits.
const maxInputs = 24

// blockWords is how many 64-bit words (64 input vectors each) Sim
// evaluates per block. Per-net buffers are one block long, so memory
// is O(nets × blockWords) at any input count.
const blockWords = 64

// Sim is a mapped netlist compiled for simulation: every net a gate or
// primary output reads is lowered onto a dense slot index, so a block
// evaluates over flat per-slot word buffers.
type Sim struct {
	numPI  int
	words  int // 64-bit words spanning all 2^numPI vectors
	nslots int
	gates  []simGate
	srcs   []srcSlot // constant and primary-input nets, by slot
	pos    []int     // slot of each primary output
}

// simGate is one gate over slots.
type simGate struct {
	table uint16
	in    []int
	out   int
}

// srcSlot is a net no gate drives: a constant or a primary input, in
// either polarity.
type srcSlot struct {
	slot int
	net  mapper.Net
}

// maxNodeID bounds the node ids NewSim indexes densely; mapper output
// numbers nets by AIG node, far below it.
const maxNodeID = 1 << 24

// NewSim validates r and compiles it for simulation over numPI primary
// inputs. Malformed netlists are reported as errors: nil or empty; a
// gate whose pin count disagrees with its cell; a net read before any
// gate drives it (only constants, node 0, and primary inputs, nodes
// 1..numPI, need no driving gate); a net driven twice or after it was
// read; a gate driving a constant or primary-input net. Undriven
// references would otherwise surface as a panic deep inside the
// simulator; detecting them up front turns a malformed netlist into a
// rejected request.
func NewSim(r *mapper.Result, numPI int) (*Sim, error) {
	if numPI < 0 || numPI > maxInputs {
		return nil, fmt.Errorf("faultsim: %d inputs outside [0,%d]", numPI, maxInputs)
	}
	if r == nil {
		return nil, fmt.Errorf("faultsim: nil netlist")
	}
	if len(r.Gates) == 0 && len(r.PONets) == 0 {
		return nil, fmt.Errorf("faultsim: empty netlist (no gates, no primary outputs)")
	}
	maxNode := numPI
	for _, gt := range r.Gates {
		maxNode = max(maxNode, gt.Output.Node)
		for _, in := range gt.Inputs {
			maxNode = max(maxNode, in.Node)
		}
	}
	for _, po := range r.PONets {
		maxNode = max(maxNode, po.Node)
	}
	if maxNode >= maxNodeID {
		return nil, fmt.Errorf("faultsim: net node %d outside [0,%d)", maxNode, maxNodeID)
	}
	s := &Sim{numPI: numPI, words: (1<<uint(numPI) + 63) / 64}
	// slot1[2·node+neg] is the net's slot plus one (0 = not yet seen).
	slot1 := make([]int32, 2*(maxNode+1))
	key := func(n mapper.Net) int {
		if n.Neg {
			return 2*n.Node + 1
		}
		return 2 * n.Node
	}
	read := func(n mapper.Net) (int, bool) {
		if n.Node < 0 {
			return 0, false
		}
		if sl := slot1[key(n)]; sl > 0 {
			return int(sl - 1), true
		}
		if n.Node > numPI {
			return 0, false
		}
		s.srcs = append(s.srcs, srcSlot{slot: s.nslots, net: n})
		s.nslots++
		slot1[key(n)] = int32(s.nslots)
		return s.nslots - 1, true
	}
	s.gates = make([]simGate, len(r.Gates))
	pins := make([]int, 0, 4*len(r.Gates))
	for gi, gt := range r.Gates {
		if len(gt.Inputs) != gt.Cell.NumIn || gt.Cell.NumIn > 4 {
			return nil, fmt.Errorf("faultsim: gate %d (%s) has %d inputs, cell has %d (at most 4)",
				gi, gt.Cell.Name, len(gt.Inputs), gt.Cell.NumIn)
		}
		g := &s.gates[gi]
		g.table = gt.Cell.Table
		for pin, in := range gt.Inputs {
			sl, ok := read(in)
			if !ok {
				return nil, fmt.Errorf("faultsim: gate %d input %d reads undriven net %+v", gi, pin, in)
			}
			pins = append(pins, sl)
		}
		g.in = pins[len(pins)-len(gt.Inputs):]
		if out := gt.Output; out.Node <= 0 || out.Node <= numPI && !out.Neg {
			return nil, fmt.Errorf("faultsim: gate %d drives constant or primary-input net %+v", gi, out)
		}
		if slot1[key(gt.Output)] > 0 {
			return nil, fmt.Errorf("faultsim: gate %d drives net %+v, which is already driven or was read before it", gi, gt.Output)
		}
		g.out = s.nslots
		s.nslots++
		slot1[key(gt.Output)] = int32(s.nslots)
	}
	s.pos = make([]int, len(r.PONets))
	for oi, po := range r.PONets {
		sl, ok := read(po)
		if !ok {
			return nil, fmt.Errorf("faultsim: primary output %d reads undriven net %+v", oi, po)
		}
		s.pos[oi] = sl
	}
	return s, nil
}

// NumPO returns the netlist's primary-output count.
func (s *Sim) NumPO() int { return len(s.pos) }

// Simulate evaluates the netlist over all 2^numPI input vectors, one
// block of at most blockWords words at a time. After each block it
// calls visit with the block's first word index and, per primary output,
// the block's words (bit b of word w is vector 64·(w0+w)+b; bits past
// 2^numPI are zero). visit must not retain the slices. poll, when
// non-nil, runs before every block; a non-nil return from it or from
// visit stops the simulation and is returned.
func (s *Sim) Simulate(poll func() error, visit func(w0 int, po [][]uint64) error) error {
	vals := s.buffers()
	po := make([][]uint64, len(s.pos))
	for w0 := 0; w0 < s.words; w0 += blockWords {
		if poll != nil {
			if err := poll(); err != nil {
				return err
			}
		}
		s.evalBlock(vals, w0)
		for o, sl := range s.pos {
			po[o] = vals[sl]
		}
		if err := visit(w0, po); err != nil {
			return err
		}
	}
	return nil
}

// buffers allocates one block-long word buffer per slot.
func (s *Sim) buffers() [][]uint64 {
	n := min(s.words, blockWords)
	backing := make([]uint64, s.nslots*n)
	vals := make([][]uint64, s.nslots)
	for i := range vals {
		vals[i] = backing[i*n : (i+1)*n : (i+1)*n]
	}
	return vals
}

// piWord holds the in-word pattern of inputs 0..5: bit b of the word is
// bit i of vector b.
var piWord = [6]uint64{
	0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
}

// evalBlock fills vals for the block starting at word w0: sources
// first, then every gate in netlist (topological) order. Bits past
// 2^numPI are cleared on the primary outputs.
func (s *Sim) evalBlock(vals [][]uint64, w0 int) {
	for _, src := range s.srcs {
		v := vals[src.slot]
		i := src.net.Node - 1
		for w := range v {
			var x uint64
			switch {
			case src.net.Node == 0:
			case i < 6:
				x = piWord[i]
			case (w0+w)>>uint(i-6)&1 == 1:
				x = ^uint64(0)
			}
			if src.net.Neg {
				x = ^x
			}
			v[w] = x
		}
	}
	for gi := range s.gates {
		g := &s.gates[gi]
		evalGate(g, vals, vals[g.out])
	}
	if s.numPI < 6 {
		mask := uint64(1)<<(1<<uint(s.numPI)) - 1
		for _, sl := range s.pos {
			vals[sl][0] &= mask
		}
	}
}

// evalGate computes one gate over a block as a sum of products of its
// cell's table rows: out[w] = OR over rows r with Table bit r set of the
// AND over pins p of (in_p[w] if bit p of r else ¬in_p[w]).
//
// Every input buffer must span exactly len(out) words: the word loop
// would otherwise silently truncate a longer buffer (or index out of
// range on a shorter one), so a mismatch panics with the same typed
// bitset.ErrSizeMismatch the Set binary ops raise.
func evalGate(g *simGate, vals [][]uint64, out []uint64) {
	var ins [4][]uint64
	for pin, sl := range g.in {
		if len(vals[sl]) != len(out) {
			panic(bitset.NewSizeMismatch("faultsim.evalGate", 64*len(vals[sl]), 64*len(out)))
		}
		ins[pin] = vals[sl]
	}
	k := len(g.in)
	// Sum whichever of the true and false rows are fewer, complementing
	// at the end for the false rows: NAND4 is one product, not fifteen.
	table, flip := uint32(g.table), false
	if all := uint32(1)<<(1<<uint(k)) - 1; 2*bits.OnesCount32(table) > 1<<uint(k) {
		table, flip = ^table&all, true
	}
	clear(out)
	for row := uint(0); row < 1<<uint(k); row++ {
		if table>>row&1 == 0 {
			continue
		}
		for w := range out {
			term := ^uint64(0)
			for pin := 0; pin < k; pin++ {
				x := ins[pin][w]
				if row>>uint(pin)&1 == 0 {
					x = ^x
				}
				term &= x
			}
			out[w] |= term
		}
	}
	if flip {
		for w := range out {
			out[w] = ^out[w]
		}
	}
}

// Report summarizes the fault behaviour of one netlist.
type Report struct {
	// Faults is the number of (net, stuck-value) pairs analyzed:
	// two per gate output net.
	Faults int
	// MeanObservability is the average over faults of the fraction of the
	// 2^n input vectors at which the fault flips some primary output.
	MeanObservability float64
	// Undetectable counts faults with zero observability (redundant
	// logic or faults hidden by downstream masking on every vector).
	Undetectable int
	// WorstObservability is the single highest per-fault observability.
	WorstObservability float64
}

// Analyze runs exhaustive stuck-at fault simulation. numPI is the
// primary-input count of the circuit the netlist was mapped from
// (numPI ≤ 16 to keep simulation exhaustive). Malformed netlists — nil,
// empty, or referencing a net no gate drives — are reported as errors.
func Analyze(r *mapper.Result, numPI int) (*Report, error) {
	if numPI < 0 || numPI > 16 {
		return nil, fmt.Errorf("faultsim: %d inputs outside [0,16]", numPI)
	}
	s, err := NewSim(r, numPI)
	if err != nil {
		return nil, err
	}
	affected := s.downstream()
	good, faulty := s.buffers(), s.buffers()
	cur := make([][]uint64, s.nslots)
	forced := [2][]uint64{make([]uint64, len(good[0])), make([]uint64, len(good[0]))}
	for w := range forced[1] {
		forced[1][w] = ^uint64(0)
	}
	// observed[2·gi+v] counts the vectors where gate gi's output stuck
	// at v flips some primary output.
	observed := make([]int, 2*len(s.gates))
	for w0 := 0; w0 < s.words; w0 += blockWords {
		s.evalBlock(good, w0)
		copy(cur, good)
		for gi, g := range s.gates {
			for v := range forced {
				// Overlay the fault: the forced net and every gate
				// downstream of it read faulty buffers, the rest good ones.
				cur[g.out] = forced[v]
				for _, gj := range affected[gi] {
					h := &s.gates[gj]
					evalGate(h, cur, faulty[h.out])
					cur[h.out] = faulty[h.out]
				}
				observed[2*gi+v] += s.flipped(good, cur)
				cur[g.out] = good[g.out]
				for _, gj := range affected[gi] {
					cur[s.gates[gj].out] = good[s.gates[gj].out]
				}
			}
		}
	}

	size := float64(int(1) << uint(numPI))
	rep := &Report{}
	for _, obs := range observed {
		rep.Faults++
		frac := float64(obs) / size
		rep.MeanObservability += frac
		if obs == 0 {
			rep.Undetectable++
		}
		if frac > rep.WorstObservability {
			rep.WorstObservability = frac
		}
	}
	if rep.Faults > 0 {
		rep.MeanObservability /= float64(rep.Faults)
	}
	return rep, nil
}

// downstream returns, per gate, the indices of the gates reachable from
// its output, in ascending (topological) order.
func (s *Sim) downstream() [][]int {
	consumers := make([][]int, s.nslots)
	for gi, g := range s.gates {
		for _, sl := range g.in {
			consumers[sl] = append(consumers[sl], gi)
		}
	}
	out := make([][]int, len(s.gates))
	seen := make([]bool, len(s.gates))
	for gi, g := range s.gates {
		clear(seen)
		stack := append([]int(nil), consumers[g.out]...)
		for _, gj := range stack {
			seen[gj] = true
		}
		for i := 0; i < len(stack); i++ {
			for _, gk := range consumers[s.gates[stack[i]].out] {
				if !seen[gk] {
					seen[gk] = true
					stack = append(stack, gk)
				}
			}
		}
		for gj, ok := range seen {
			if ok {
				out[gi] = append(out[gi], gj)
			}
		}
	}
	return out
}

// flipped counts the block's vectors where some primary output differs
// between the good and the faulty values. Faulty values past 2^numPI
// are not masked (a forced constant fills the whole word), so the
// difference is.
func (s *Sim) flipped(good, faulty [][]uint64) int {
	n := 0
	for w := range good[0] {
		var d uint64
		for _, sl := range s.pos {
			d |= good[sl][w] ^ faulty[sl][w]
		}
		if s.numPI < 6 {
			d &= uint64(1)<<(1<<uint(s.numPI)) - 1
		}
		n += bits.OnesCount64(d)
	}
	return n
}
