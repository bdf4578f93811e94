// Package celllib models a small generic standard-cell library in the
// 70 nm class of the paper's experiments. Cell data (function, area,
// delay, input capacitance, leakage) is representative rather than tied
// to a proprietary kit: the experiments compare the same function under
// different DC assignments through a fixed library, so only relative
// metrics matter.
package celllib

import "fmt"

// Cell is one library gate. Table holds the truth table over NumIn
// inputs: bit r of Table is the output for the input row r, where input
// pin i contributes bit i of r.
type Cell struct {
	Name     string
	NumIn    int
	Table    uint16
	Area     float64 // area units (≈ equivalent NAND2 = 1.33)
	Delay    float64 // intrinsic delay, ps
	InputCap float64 // per-pin input capacitance, fF
	Leakage  float64 // leakage power, nW
}

func (c Cell) String() string { return c.Name }

// Library is an immutable set of cells plus the designated inverter used
// for phase repair during mapping.
type Library struct {
	Cells []Cell
	Inv   Cell
}

// tableOf builds a truth table from a function over the row index.
func tableOf(numIn int, fn func(r uint) bool) uint16 {
	var t uint16
	for r := uint(0); r < 1<<uint(numIn); r++ {
		if fn(r) {
			t |= 1 << r
		}
	}
	return t
}

func bit(r uint, i int) bool { return r>>uint(i)&1 == 1 }

// generic70 is the one default library every caller shares.
var generic70 = buildGeneric70()

// Generic70 returns the default library, one shared immutable value:
// callers must not modify it, and the mapper keys its per-library matcher
// cache on the pointer. Delay and area scale with the logical effort of
// each topology; XORs are the customary outliers.
func Generic70() *Library { return generic70 }

func buildGeneric70() *Library {
	inv := Cell{Name: "INV", NumIn: 1, Table: tableOf(1, func(r uint) bool { return !bit(r, 0) }),
		Area: 0.67, Delay: 18, InputCap: 1.0, Leakage: 0.4}
	cells := []Cell{
		inv,
		{Name: "NAND2", NumIn: 2, Table: tableOf(2, func(r uint) bool { return !(bit(r, 0) && bit(r, 1)) }),
			Area: 1.33, Delay: 28, InputCap: 1.1, Leakage: 0.8},
		{Name: "NOR2", NumIn: 2, Table: tableOf(2, func(r uint) bool { return !(bit(r, 0) || bit(r, 1)) }),
			Area: 1.33, Delay: 34, InputCap: 1.2, Leakage: 0.9},
		{Name: "AND2", NumIn: 2, Table: tableOf(2, func(r uint) bool { return bit(r, 0) && bit(r, 1) }),
			Area: 1.67, Delay: 42, InputCap: 1.0, Leakage: 1.0},
		{Name: "OR2", NumIn: 2, Table: tableOf(2, func(r uint) bool { return bit(r, 0) || bit(r, 1) }),
			Area: 1.67, Delay: 46, InputCap: 1.1, Leakage: 1.1},
		{Name: "XOR2", NumIn: 2, Table: tableOf(2, func(r uint) bool { return bit(r, 0) != bit(r, 1) }),
			Area: 3.0, Delay: 62, InputCap: 1.8, Leakage: 1.9},
		{Name: "XNOR2", NumIn: 2, Table: tableOf(2, func(r uint) bool { return bit(r, 0) == bit(r, 1) }),
			Area: 3.0, Delay: 62, InputCap: 1.8, Leakage: 1.9},
		{Name: "NAND3", NumIn: 3, Table: tableOf(3, func(r uint) bool { return !(bit(r, 0) && bit(r, 1) && bit(r, 2)) }),
			Area: 2.0, Delay: 38, InputCap: 1.3, Leakage: 1.2},
		{Name: "NOR3", NumIn: 3, Table: tableOf(3, func(r uint) bool { return !(bit(r, 0) || bit(r, 1) || bit(r, 2)) }),
			Area: 2.0, Delay: 48, InputCap: 1.5, Leakage: 1.3},
		{Name: "AND3", NumIn: 3, Table: tableOf(3, func(r uint) bool { return bit(r, 0) && bit(r, 1) && bit(r, 2) }),
			Area: 2.33, Delay: 52, InputCap: 1.1, Leakage: 1.4},
		{Name: "OR3", NumIn: 3, Table: tableOf(3, func(r uint) bool { return bit(r, 0) || bit(r, 1) || bit(r, 2) }),
			Area: 2.33, Delay: 58, InputCap: 1.2, Leakage: 1.5},
		{Name: "NAND4", NumIn: 4, Table: tableOf(4, func(r uint) bool { return !(bit(r, 0) && bit(r, 1) && bit(r, 2) && bit(r, 3)) }),
			Area: 2.67, Delay: 46, InputCap: 1.4, Leakage: 1.6},
		{Name: "NOR4", NumIn: 4, Table: tableOf(4, func(r uint) bool { return !(bit(r, 0) || bit(r, 1) || bit(r, 2) || bit(r, 3)) }),
			Area: 2.67, Delay: 60, InputCap: 1.7, Leakage: 1.7},
		{Name: "AOI21", NumIn: 3, Table: tableOf(3, func(r uint) bool { return !(bit(r, 0) && bit(r, 1) || bit(r, 2)) }),
			Area: 2.0, Delay: 40, InputCap: 1.3, Leakage: 1.1},
		{Name: "OAI21", NumIn: 3, Table: tableOf(3, func(r uint) bool { return !((bit(r, 0) || bit(r, 1)) && bit(r, 2)) }),
			Area: 2.0, Delay: 40, InputCap: 1.3, Leakage: 1.1},
		{Name: "AOI22", NumIn: 4, Table: tableOf(4, func(r uint) bool { return !(bit(r, 0) && bit(r, 1) || bit(r, 2) && bit(r, 3)) }),
			Area: 2.67, Delay: 48, InputCap: 1.4, Leakage: 1.5},
		{Name: "OAI22", NumIn: 4, Table: tableOf(4, func(r uint) bool { return !((bit(r, 0) || bit(r, 1)) && (bit(r, 2) || bit(r, 3))) }),
			Area: 2.67, Delay: 48, InputCap: 1.4, Leakage: 1.5},
		{Name: "MUX2", NumIn: 3, Table: tableOf(3, func(r uint) bool {
			if bit(r, 2) {
				return bit(r, 1)
			}
			return bit(r, 0)
		}),
			Area: 2.67, Delay: 50, InputCap: 1.4, Leakage: 1.6},
		{Name: "MAJ3", NumIn: 3, Table: tableOf(3, func(r uint) bool {
			n := 0
			for i := 0; i < 3; i++ {
				if bit(r, i) {
					n++
				}
			}
			return n >= 2
		}),
			Area: 3.0, Delay: 56, InputCap: 1.6, Leakage: 1.8},
	}
	return &Library{Cells: cells, Inv: inv}
}

// ByName returns the named cell, or an error if absent.
func (l *Library) ByName(name string) (Cell, error) {
	for _, c := range l.Cells {
		if c.Name == name {
			return c, nil
		}
	}
	return Cell{}, fmt.Errorf("celllib: no cell %q", name)
}
