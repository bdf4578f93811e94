package relsyn_test

import (
	"bytes"
	"os"
	"testing"

	"relsyn/internal/benchmarks"
	"relsyn/internal/blif"
	"relsyn/internal/network"
	"relsyn/internal/synth"
)

func benchSatDCNetwork(b *testing.B, name string) *network.Network {
	b.Helper()
	f, err := benchmarks.Load(name)
	if err != nil {
		b.Fatal(err)
	}
	res, err := synth.Synthesize(f, synth.Options{})
	if err != nil {
		b.Fatal(err)
	}
	nw, err := network.FromAIG(res.Graph, 4)
	if err != nil {
		b.Fatal(err)
	}
	return nw
}

// BenchmarkSatDC pairs the windowed SAT reassignment against the
// exhaustive-simulation one on suite benchmarks at the exhaustive
// engine's comfortable sizes. The windowed side's per-node cost is
// O(window) SAT calls, the exhaustive side's O(2^n/64) word operations
// per re-simulated node; at n=12 the exhaustive side is the faster one,
// so the gated exhaustive/windowed ratio sits below 1 and must not
// shrink as either engine evolves. The 120-PI group has no exhaustive
// partner — that regime is the windowed engine's reason to exist — so
// it is reported but never paired.
func BenchmarkSatDC(b *testing.B) {
	for _, tc := range []struct{ group, bench string }{
		{"t4", "t4"},
		{"random3", "random3"},
	} {
		nw := benchSatDCNetwork(b, tc.bench)
		b.Run(tc.group+"/windowed", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := nw.Clone()
				if _, err := c.ReassignLCFWindowed(0.55, network.SatDCOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.group+"/exhaustive", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := nw.Clone()
				if _, err := c.ReassignLCF(0.55, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	src, err := os.ReadFile("internal/network/testdata/big120.blif")
	if err != nil {
		b.Fatal(err)
	}
	big, err := blif.Parse(bytes.NewReader(src))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("n=120/windowed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := big.Clone()
			if _, err := c.ReassignLCFWindowed(0.55, network.SatDCOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
