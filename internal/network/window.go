// Window construction for SAT-based don't-care extraction, following
// Mishchenko & Brayton, "SAT-Based Complete Don't-Care Computation for
// Network Optimization": instead of encoding the whole network into the
// miter (which re-inherits the exhaustive 2^NumPI ceiling in solve
// effort and makes every node's CNF proportional to the circuit), each
// node gets a distance-bounded window — a TFI/TFO cone around the pivot
// plus the side inputs feeding it — and only the window is encoded.
//
// Soundness contract (the subset property the test net pins): a local
// pattern the windowed miter proves don't-care is a don't-care of the
// complete extraction. Two structural facts carry the argument:
//
//  1. Window inputs are free. The miter quantifies over all boundary
//     assignments, a superset of the value combinations the rest of the
//     network can actually produce, so "pattern never occurs in the
//     window" implies "never occurs globally" (SDC ⊆ complete SDC).
//
//  2. Window outputs are pseudo-POs. Every path from the pivot to the
//     rest of the network first crosses a member-node output that feeds
//     a non-member (or a real PO) — by construction that signal is a
//     window output. If no boundary assignment lets the complemented
//     pivot change any window output, then (by topological induction)
//     nothing outside the window ever changes either: the first outside
//     signal to differ would need a differing member output before it,
//     which the miter ruled out. So "unobservable at the window
//     boundary" implies "unobservable at every PO" (ODC ⊆ complete ODC).
//
// At full depth (TFI and TFO at least the network depth) the window
// closes over every node that can reach or feed the pivot's cone, its
// inputs collapse to the primary inputs, and its outputs to the
// PO-driving members — the windowed extraction then equals the complete
// one exactly (metamorphic property 7 enforces both directions).
package network

import "sort"

// Default window depths: deep enough to capture the reconvergence that
// produces most ODCs in k-feasible networks, shallow enough that window
// CNFs stay tens of nodes for circuits with hundreds of inputs.
const (
	DefaultWindowTFI = 4
	DefaultWindowTFO = 2
)

// WindowOptions bounds the window carved around a pivot node.
type WindowOptions struct {
	// TFI is the transitive-fanin depth: how many levels backward from
	// the pivot (and from every included fanout node) are encoded.
	// 0 means DefaultWindowTFI; negative means unbounded (full depth).
	TFI int
	// TFO is the transitive-fanout depth: how many levels of nodes fed
	// (directly or transitively) by the pivot are encoded, making their
	// outputs the observability boundary. 0 means DefaultWindowTFO;
	// negative means unbounded (full depth).
	TFO int
}

// normalized resolves the zero and negative spellings against nodes,
// the network's node count (an upper bound on its depth).
func (o WindowOptions) normalized(nodes int) (tfi, tfo int) {
	tfi, tfo = o.TFI, o.TFO
	if tfi == 0 {
		tfi = DefaultWindowTFI
	}
	if tfo == 0 {
		tfo = DefaultWindowTFO
	}
	if tfi < 0 || tfi > nodes {
		tfi = nodes
	}
	if tfo < 0 || tfo > nodes {
		tfo = nodes
	}
	return tfi, tfo
}

// FullDepth is the WindowOptions spelling for an unbounded window: the
// windowed extraction then computes the complete SDC+ODC set.
func FullDepth() WindowOptions { return WindowOptions{TFI: -1, TFO: -1} }

// Window is the carved region around one pivot node.
type Window struct {
	// Pivot is the node index the window was built for.
	Pivot int
	// Members are the encoded node indices, sorted ascending (the
	// network's topological order). Always contains Pivot.
	Members []int
	// Inputs are the boundary signals (primary inputs or non-member
	// node outputs) feeding member nodes; the miter treats them as free
	// variables shared between the two copies.
	Inputs []int
	// Outputs are the member output signals observable from outside:
	// signals driving a non-constant primary output or feeding at least
	// one non-member node. They are the miter's pseudo-POs.
	Outputs []int
}

// fanoutIndex returns, per signal id, the node indices consuming it.
func (nw *Network) fanoutIndex() [][]int {
	fo := make([][]int, nw.NumPI+len(nw.Nodes))
	for nj, nd := range nw.Nodes {
		for _, f := range nd.Fanins {
			fo[f] = append(fo[f], nj)
		}
	}
	return fo
}

// Window carves the TFI/TFO-bounded region around node ni. It never
// fails: a pivot with no observable path simply gets an empty Outputs
// slice (everything is then don't-care, like a dead node).
func (nw *Network) Window(ni int, opt WindowOptions) *Window {
	return nw.window(ni, opt, nw.fanoutIndex())
}

// window is the index-sharing variant: callers sweeping many pivots
// build the fanout index once instead of once per pivot.
func (nw *Network) window(ni int, opt WindowOptions, fo [][]int) *Window {
	tfi, tfo := opt.normalized(len(nw.Nodes))

	member := make(map[int]bool)
	member[ni] = true

	// Forward sweep: nodes within tfo levels of the pivot's output.
	frontier := []int{ni}
	for d := 0; d < tfo && len(frontier) > 0; d++ {
		var next []int
		for _, nj := range frontier {
			for _, consumer := range fo[nw.NumPI+nj] {
				if !member[consumer] {
					member[consumer] = true
					next = append(next, consumer)
				}
			}
		}
		frontier = next
	}

	// Backward sweep: tfi levels of fanin cone from every node gathered
	// so far (the pivot and its bounded fanout), capturing the side
	// inputs whose correlations produce satisfiability don't-cares.
	frontier = frontier[:0]
	for nj := range member {
		frontier = append(frontier, nj)
	}
	for d := 0; d < tfi && len(frontier) > 0; d++ {
		var next []int
		for _, nj := range frontier {
			for _, f := range nw.Nodes[nj].Fanins {
				if f < nw.NumPI {
					continue
				}
				src := f - nw.NumPI
				if !member[src] {
					member[src] = true
					next = append(next, src)
				}
			}
		}
		frontier = next
	}

	w := &Window{Pivot: ni, Members: make([]int, 0, len(member))}
	for nj := range member {
		w.Members = append(w.Members, nj)
	}
	sort.Ints(w.Members)

	// Boundary inputs: fanins of members that are not member outputs.
	seenIn := make(map[int]bool)
	for _, nj := range w.Members {
		for _, f := range nw.Nodes[nj].Fanins {
			if f >= nw.NumPI && member[f-nw.NumPI] {
				continue
			}
			if !seenIn[f] {
				seenIn[f] = true
				w.Inputs = append(w.Inputs, f)
			}
		}
	}
	sort.Ints(w.Inputs)

	// Pseudo-POs: member outputs visible outside the window.
	poDriven := make(map[int]bool)
	for i, s := range nw.POs {
		if nw.poConst[i] < 0 {
			poDriven[s] = true
		}
	}
	for _, nj := range w.Members {
		s := nw.NumPI + nj
		visible := poDriven[s]
		if !visible {
			for _, consumer := range fo[s] {
				if !member[consumer] {
					visible = true
					break
				}
			}
		}
		if visible {
			w.Outputs = append(w.Outputs, s)
		}
	}
	return w
}

// Clone deep-copies the network (node tables included), so callers can
// reassign a copy while keeping the original for equivalence checking.
func (nw *Network) Clone() *Network {
	c := &Network{
		NumPI:   nw.NumPI,
		Nodes:   make([]Node, len(nw.Nodes)),
		POs:     append([]int(nil), nw.POs...),
		poConst: append([]int(nil), nw.poConst...),
	}
	for i, nd := range nw.Nodes {
		c.Nodes[i] = Node{
			Fanins: append([]int(nil), nd.Fanins...),
			Table:  nd.Table.Clone(),
		}
	}
	return c
}
