package main

import (
	"fmt"

	"relsyn/internal/mapper"
	"relsyn/internal/tt"
)

// checkNetlist simulates the mapped netlist over all 2^n minterms and
// checks every primary output against the spec's on- and off-sets. It
// uses only the gate list and the library cells' truth tables, never
// the AIG the netlist was mapped from, so it does not share code with
// the pipeline's own verify stage.
func checkNetlist(nl *mapper.Result, f *tt.Function) error {
	n := f.NumIn
	size := 1 << uint(n)
	words := (size + 63) / 64
	last := ^uint64(0)
	if size%64 != 0 {
		last = 1<<uint(size%64) - 1
	}
	vals := map[mapper.Net][]uint64{}
	signal := func(net mapper.Net) ([]uint64, error) {
		if v, ok := vals[net]; ok {
			return v, nil
		}
		v := make([]uint64, words)
		switch {
		case net.Node == 0: // constant false, or true when negated
			if net.Neg {
				for w := range v {
					v[w] = ^uint64(0)
				}
			}
		case net.Node <= n && !net.Neg: // primary input net.Node-1
			for m := 0; m < size; m++ {
				if m>>uint(net.Node-1)&1 == 1 {
					v[m/64] |= 1 << uint(m%64)
				}
			}
		default:
			return nil, fmt.Errorf("net %+v is read before any gate drives it", net)
		}
		vals[net] = v
		return v, nil
	}
	for gi, g := range nl.Gates {
		if len(g.Inputs) != g.Cell.NumIn {
			return fmt.Errorf("gate %d (%s) has %d inputs, cell has %d", gi, g.Cell.Name, len(g.Inputs), g.Cell.NumIn)
		}
		ins := make([][]uint64, len(g.Inputs))
		for p, net := range g.Inputs {
			v, err := signal(net)
			if err != nil {
				return fmt.Errorf("gate %d (%s): %w", gi, g.Cell.Name, err)
			}
			ins[p] = v
		}
		out := make([]uint64, words)
		for row := 0; row < 1<<uint(g.Cell.NumIn); row++ {
			if g.Cell.Table>>uint(row)&1 == 0 {
				continue
			}
			for w := range out {
				term := ^uint64(0)
				for p := range ins {
					x := ins[p][w]
					if row>>uint(p)&1 == 0 {
						x = ^x
					}
					term &= x
				}
				out[w] |= term
			}
		}
		if _, dup := vals[g.Output]; dup {
			return fmt.Errorf("gate %d (%s) drives net %+v a second time", gi, g.Cell.Name, g.Output)
		}
		vals[g.Output] = out
	}
	if len(nl.PONets) != f.NumOut() {
		return fmt.Errorf("netlist has %d outputs, spec has %d", len(nl.PONets), f.NumOut())
	}
	for o, net := range nl.PONets {
		v, err := signal(net)
		if err != nil {
			return fmt.Errorf("output %d: %w", o, err)
		}
		on, off := f.Outs[o].On.Words(), f.OffSet(o).Words()
		for w := 0; w < words; w++ {
			mask := ^uint64(0)
			if w == words-1 {
				mask = last
			}
			if missing := on[w] &^ v[w] & mask; missing != 0 {
				return fmt.Errorf("output %d is 0 on on-set minterms (word %d, bits %#x)", o, w, missing)
			}
			if hit := off[w] & v[w] & mask; hit != 0 {
				return fmt.Errorf("output %d is 1 on off-set minterms (word %d, bits %#x)", o, w, hit)
			}
		}
	}
	return nil
}
