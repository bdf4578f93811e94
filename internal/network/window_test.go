package network_test

import (
	"reflect"
	"strings"
	"testing"

	"relsyn/internal/bitset"
	"relsyn/internal/blif"
	"relsyn/internal/network"
	"relsyn/internal/tt"
)

// chainBLIF is a 6-node chain s0→s1→…→s5 where each node also takes one
// fresh primary input, so every window boundary is exercised: signals
// 0–6 are x0–x6, node si is index i (signal 7+i), and y = s5.
const chainBLIF = `.model chain
.inputs x0 x1 x2 x3 x4 x5 x6
.outputs y
.names x0 x1 s0
11 1
.names s0 x2 s1
10 1
01 1
.names s1 x3 s2
1- 1
-1 1
.names s2 x4 s3
11 1
.names s3 x5 s4
10 1
01 1
.names s4 x6 y
1- 1
-1 1
.end
`

func chainNetwork(t *testing.T) *network.Network {
	t.Helper()
	nw, err := blif.Parse(strings.NewReader(chainBLIF))
	if err != nil {
		t.Fatal(err)
	}
	if nw.NumPI != 7 || nw.NumNodes() != 6 {
		t.Fatalf("chain shape %dx%d, want 7 PIs and 6 nodes", nw.NumPI, nw.NumNodes())
	}
	return nw
}

func TestWindowChainBounds(t *testing.T) {
	nw := chainNetwork(t)
	w := nw.Window(3, network.WindowOptions{TFI: 1, TFO: 1})
	if w.Pivot != 3 {
		t.Fatalf("pivot %d", w.Pivot)
	}
	// One level forward reaches node 4; one level back from {3,4} pulls in
	// node 2 (node 3's fanin) — node 4's node fanin is the pivot itself.
	if want := []int{2, 3, 4}; !reflect.DeepEqual(w.Members, want) {
		t.Fatalf("members %v, want %v", w.Members, want)
	}
	// Boundary inputs: node 1's output (signal 8) plus the side PIs x3, x4,
	// x5 feeding the members.
	if want := []int{3, 4, 5, 8}; !reflect.DeepEqual(w.Inputs, want) {
		t.Fatalf("inputs %v, want %v", w.Inputs, want)
	}
	// Only node 4's output leaves the window (it feeds non-member node 5);
	// nodes 2 and 3 are consumed entirely inside.
	if want := []int{11}; !reflect.DeepEqual(w.Outputs, want) {
		t.Fatalf("outputs %v, want %v", w.Outputs, want)
	}
}

func TestWindowChainTFOBeforeTFI(t *testing.T) {
	// The backward sweep must start from the whole bounded fanout, not
	// just the pivot: with TFO 2 the window reaches node 2, whose fanin
	// cone then re-enters via the TFI pass.
	nw := chainNetwork(t)
	w := nw.Window(0, network.WindowOptions{TFI: 1, TFO: 2})
	if want := []int{0, 1, 2}; !reflect.DeepEqual(w.Members, want) {
		t.Fatalf("members %v, want %v", w.Members, want)
	}
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(w.Inputs, want) {
		t.Fatalf("inputs %v, want %v", w.Inputs, want)
	}
	if want := []int{9}; !reflect.DeepEqual(w.Outputs, want) {
		t.Fatalf("outputs %v, want %v", w.Outputs, want)
	}
}

func TestWindowFullDepthClosesOverNetwork(t *testing.T) {
	nw := chainNetwork(t)
	w := nw.Window(3, network.FullDepth())
	if want := []int{0, 1, 2, 3, 4, 5}; !reflect.DeepEqual(w.Members, want) {
		t.Fatalf("members %v, want %v", w.Members, want)
	}
	// At full depth the boundary collapses to the primary inputs and the
	// PO driver.
	if want := []int{0, 1, 2, 3, 4, 5, 6}; !reflect.DeepEqual(w.Inputs, want) {
		t.Fatalf("inputs %v, want %v", w.Inputs, want)
	}
	if want := []int{12}; !reflect.DeepEqual(w.Outputs, want) {
		t.Fatalf("outputs %v, want %v", w.Outputs, want)
	}
}

func TestWindowDepthSpellings(t *testing.T) {
	nw := chainNetwork(t)
	for ni := 0; ni < nw.NumNodes(); ni++ {
		zero := nw.Window(ni, network.WindowOptions{})
		expl := nw.Window(ni, network.WindowOptions{
			TFI: network.DefaultWindowTFI, TFO: network.DefaultWindowTFO,
		})
		if !reflect.DeepEqual(zero, expl) {
			t.Fatalf("node %d: zero-value window %+v differs from explicit defaults %+v", ni, zero, expl)
		}
		// Any depth at least the node count saturates, matching the
		// negative (unbounded) spelling.
		deep := nw.Window(ni, network.WindowOptions{TFI: 1000, TFO: 1000})
		full := nw.Window(ni, network.FullDepth())
		if !reflect.DeepEqual(deep, full) {
			t.Fatalf("node %d: oversized depths %+v differ from FullDepth %+v", ni, deep, full)
		}
	}
}

func TestWindowPODriverIsOutput(t *testing.T) {
	nw := chainNetwork(t)
	w := nw.Window(5, network.WindowOptions{TFI: 1, TFO: 3})
	// Node 5 has no fanout, so the forward sweep is empty; node 4 joins
	// through the fanin pass and is consumed inside the window. The PO
	// driver itself is always a pseudo-PO.
	if want := []int{4, 5}; !reflect.DeepEqual(w.Members, want) {
		t.Fatalf("members %v, want %v", w.Members, want)
	}
	if want := []int{12}; !reflect.DeepEqual(w.Outputs, want) {
		t.Fatalf("outputs %v, want %v", w.Outputs, want)
	}
}

func TestWindowDeadPivotHasNoOutputs(t *testing.T) {
	// A node with no path to a PO gets an empty Outputs slice, and its
	// windowed spec degenerates to all-DC (the dead-node contract).
	tbl := bitset.New(4)
	tbl.Set(3) // AND
	nw := &network.Network{
		NumPI: 2,
		Nodes: []network.Node{
			{Fanins: []int{0, 1}, Table: tbl.Clone()},
			{Fanins: []int{0, 1}, Table: tbl.Clone()},
		},
	}
	nw.AddPO(3) // only node 1 drives a PO; node 0 is dead
	w := nw.Window(0, network.FullDepth())
	if len(w.Outputs) != 0 {
		t.Fatalf("dead pivot has outputs %v", w.Outputs)
	}
	spec, err := nw.NewDCExtractor(network.SatDCOptions{}).LocalSpec(0)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < spec.Size(); v++ {
		if spec.Phase(0, v) != tt.DC {
			t.Fatalf("dead node pattern %d not DC", v)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	nw := chainNetwork(t)
	before := nw.POFunction()
	c := nw.Clone()
	// Mutate every layer of the clone: tables, fanins, PO list.
	for ni := range c.Nodes {
		for v := 0; v < 1<<uint(c.Nodes[ni].NumIn()); v++ {
			if c.Nodes[ni].Table.Test(v) {
				c.Nodes[ni].Table.Clear(v)
			} else {
				c.Nodes[ni].Table.Set(v)
			}
		}
	}
	c.Nodes[0].Fanins[0] = 6
	c.AddPO(7)
	if !nw.POFunction().Equal(before) {
		t.Fatal("mutating the clone changed the original's PO functions")
	}
	if nw.Nodes[0].Fanins[0] != 0 || len(nw.POs) != 1 {
		t.Fatal("clone shares structure with the original")
	}
}
