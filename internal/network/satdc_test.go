package network_test

import (
	"math/rand"
	"testing"

	"relsyn/internal/aig"
	"relsyn/internal/network"
	"relsyn/internal/synth"
	"relsyn/internal/tt"
)

func synthFor(f *tt.Function) (*aig.Graph, error) {
	res, err := synth.Synthesize(f, synth.Options{Objective: synth.OptimizePower})
	if err != nil {
		return nil, err
	}
	return res.Graph, nil
}

// The SAT-based extractor must agree exactly with the exhaustive one on
// every node of every circuit.
func TestLocalSpecSATMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(231))
	for trial := 0; trial < 5; trial++ {
		g := synthAIG(t, rng, 5+rng.Intn(3), 1+rng.Intn(3))
		nw, err := network.FromAIG(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		x := nw.NewDCExtractor(network.SatDCOptions{Window: network.FullDepth()})
		for ni := range nw.Nodes {
			exh := nw.LocalSpec(ni)
			viaSAT, err := x.LocalSpec(ni)
			if err != nil {
				t.Fatalf("trial %d node %d: %v", trial, ni, err)
			}
			if !exh.Equal(viaSAT) {
				for v := 0; v < exh.Size(); v++ {
					if exh.Phase(0, v) != viaSAT.Phase(0, v) {
						t.Fatalf("trial %d node %d pattern %d: exhaustive %v, SAT %v",
							trial, ni, v, exh.Phase(0, v), viaSAT.Phase(0, v))
					}
				}
			}
		}
	}
}

func TestLocalSpecSATOutOfRange(t *testing.T) {
	rng := rand.New(rand.NewSource(232))
	g := synthAIG(t, rng, 4, 1)
	nw, err := network.FromAIG(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	x := nw.NewDCExtractor(network.SatDCOptions{Window: network.FullDepth()})
	if _, err := x.LocalSpec(-1); err == nil {
		t.Fatal("negative node accepted")
	}
	if _, err := x.LocalSpec(nw.NumNodes()); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}

// A PO-driving node can have SDCs but no ODCs: flipping it always flips
// its PO wherever it is reachable.
func TestLocalSpecSATPODrivingNode(t *testing.T) {
	rng := rand.New(rand.NewSource(233))
	g := synthAIG(t, rng, 6, 2)
	nw, err := network.FromAIG(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	poNodes := map[int]bool{}
	for i, s := range nw.POs {
		if nw.POConst(i) < 0 && s >= nw.NumPI {
			poNodes[s-nw.NumPI] = true
		}
	}
	tabs := nw.SignalTables()
	x := nw.NewDCExtractor(network.SatDCOptions{Window: network.FullDepth()})
	for ni := range poNodes {
		spec, err := x.LocalSpec(ni)
		if err != nil {
			t.Fatal(err)
		}
		// Every DC pattern of a PO driver must be unreachable (pure SDC).
		nd := nw.Nodes[ni]
		occurs := map[int]bool{}
		for m := 0; m < 1<<uint(nw.NumPI); m++ {
			row := 0
			for j, f := range nd.Fanins {
				if tabs[f].Test(m) {
					row |= 1 << uint(j)
				}
			}
			occurs[row] = true
		}
		for v := 0; v < spec.Size(); v++ {
			if spec.Phase(0, v) == tt.DC && occurs[v] {
				t.Fatalf("node %d (PO driver) pattern %d is reachable yet marked DC", ni, v)
			}
		}
	}
}

func BenchmarkLocalSpecSAT(b *testing.B) {
	rng := rand.New(rand.NewSource(234))
	f := randomFunction(rng, 7, 2, 0.4)
	res, err := synthFor(f)
	if err != nil {
		b.Fatal(err)
	}
	nw, err := network.FromAIG(res, 5)
	if err != nil {
		b.Fatal(err)
	}
	full := network.SatDCOptions{Window: network.FullDepth()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ni := range nw.Nodes {
			if _, err := nw.NewDCExtractor(full).LocalSpec(ni); err != nil {
				b.Fatal(err)
			}
		}
	}
}
