package network_test

import (
	"math/rand"
	"testing"

	"relsyn/internal/network"
	"relsyn/internal/synth"
	"relsyn/internal/tt"
)

// FuzzWindowedDC drives the windowed extractor with fuzzer-chosen
// network shapes and window depths, and checks the two invariants the
// engine's soundness rests on:
//
//  1. Subset: every pattern the windowed miter marks don't-care is a
//     don't-care of the exhaustive extraction, and the shared care
//     patterns agree in phase.
//  2. PO preservation: ReassignLCFWindowed leaves every primary-output
//     function bit-identical, confirmed both by the report's CEC verdict
//     and by an independent truth-table comparison.
//
// The seed corpus brackets the window boundary: depths below, at, and
// above the synthesized cone depth (k-feasible networks from 3–7 input
// functions are 1–5 levels deep), the zero-value default spelling, and
// the negative full-depth spelling where windowed must equal exhaustive.
func FuzzWindowedDC(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(2), int8(1), int8(1)) // window underflows the cone
	f.Add(int64(2), uint8(6), uint8(2), int8(2), int8(1))
	f.Add(int64(3), uint8(7), uint8(3), int8(0), int8(0))   // defaults: near cone depth
	f.Add(int64(4), uint8(6), uint8(1), int8(-1), int8(-1)) // full depth: exact equality
	f.Add(int64(5), uint8(4), uint8(2), int8(3), int8(4))   // window overflows the cone
	f.Fuzz(func(t *testing.T, seed int64, n, m uint8, tfi, tfo int8) {
		nIn := 3 + int(n)%5  // 3..7 inputs keeps the exhaustive oracle cheap
		nOut := 1 + int(m)%3 // 1..3 outputs
		rng := rand.New(rand.NewSource(seed))
		spec := randomFunction(rng, nIn, nOut, 0.4)
		res, err := synth.Synthesize(spec, synth.Options{})
		if err != nil {
			t.Fatalf("synthesize: %v", err)
		}
		nw, err := network.FromAIG(res.Graph, 4)
		if err != nil {
			t.Fatalf("FromAIG: %v", err)
		}
		opt := network.SatDCOptions{
			Window: network.WindowOptions{TFI: int(tfi), TFO: int(tfo)},
		}
		full := opt.Window.TFI < 0 && opt.Window.TFO < 0
		x := nw.NewDCExtractor(opt)
		for ni := 0; ni < nw.NumNodes(); ni++ {
			exact := nw.LocalSpec(ni)
			win, err := x.LocalSpec(ni)
			if err != nil {
				t.Fatalf("node %d: %v", ni, err) // budgets never bind at this size
			}
			if win.NumIn != exact.NumIn {
				t.Fatalf("node %d: spec over %d inputs, exhaustive over %d", ni, win.NumIn, exact.NumIn)
			}
			for v := 0; v < exact.Size(); v++ {
				wp, ep := win.Phase(0, v), exact.Phase(0, v)
				if wp == tt.DC && ep != tt.DC {
					t.Fatalf("node %d pattern %d: windowed DC is exhaustively care (%v)", ni, v, ep)
				}
				if wp != tt.DC && ep != tt.DC && wp != ep {
					t.Fatalf("node %d pattern %d: care phase flipped (windowed %v, exhaustive %v)", ni, v, wp, ep)
				}
				if full && wp != ep {
					t.Fatalf("node %d pattern %d: full-depth window (%v) differs from exhaustive (%v)", ni, v, wp, ep)
				}
			}
		}
		before := nw.POFunction()
		rep, err := nw.ReassignLCFWindowed(0.55, opt)
		if err != nil {
			t.Fatalf("ReassignLCFWindowed: %v", err)
		}
		if !rep.Equivalent || rep.CECMethod == "" {
			t.Fatalf("CEC verdict %+v", rep)
		}
		if rep.Windows < nw.NumNodes() || rep.Nodes != nw.NumNodes() {
			t.Fatalf("accounting %+v for %d nodes", rep, nw.NumNodes())
		}
		if !nw.POFunction().Equal(before) {
			t.Fatal("windowed reassignment changed a PO function")
		}
	})
}
