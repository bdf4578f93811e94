// Package blif reads and writes the combinational subset of the
// Berkeley Logic Interchange Format (.model/.inputs/.outputs/.names) for
// SOP-node networks — the format ABC consumes, making the nodal
// decomposition results (paper §4) portable to external tools.
package blif

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"relsyn/internal/bitset"
	"relsyn/internal/cube"
	"relsyn/internal/network"
)

// WriteNetwork serializes a network. Primary inputs are named i0…,
// outputs o0…, internal nodes n0…. Node functions are emitted as
// espresso-minimized single-output covers. A node that drives a primary
// output takes that output's name directly, so a parse→write cycle is a
// fixpoint: buffers appear only for PI-driven outputs and for outputs
// sharing an already-named signal, and those buffers become the named
// node on the next cycle.
func WriteNetwork(w io.Writer, nw *network.Network, model string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, ".model %s\n", model)
	var ins, outs []string
	for i := 0; i < nw.NumPI; i++ {
		ins = append(ins, fmt.Sprintf("i%d", i))
	}
	for i := range nw.POs {
		outs = append(outs, fmt.Sprintf("o%d", i))
	}
	if len(ins) > 0 {
		fmt.Fprintf(bw, ".inputs %s\n", strings.Join(ins, " "))
	}
	fmt.Fprintf(bw, ".outputs %s\n", strings.Join(outs, " "))

	// poOf maps a node's signal to the first non-constant PO it drives;
	// that node is emitted under the output's name.
	poOf := make(map[int]int)
	for i, s := range nw.POs {
		if nw.POConst(i) >= 0 || s < nw.NumPI {
			continue
		}
		if _, ok := poOf[s]; !ok {
			poOf[s] = i
		}
	}
	sigName := func(s int) string {
		if s < nw.NumPI {
			return fmt.Sprintf("i%d", s)
		}
		if i, ok := poOf[s]; ok {
			return fmt.Sprintf("o%d", i)
		}
		return fmt.Sprintf("n%d", s-nw.NumPI)
	}
	for ni, nd := range nw.Nodes {
		names := make([]string, 0, nd.NumIn()+1)
		for _, f := range nd.Fanins {
			names = append(names, sigName(f))
		}
		names = append(names, sigName(nw.NumPI+ni))
		fmt.Fprintf(bw, ".names %s\n", strings.Join(names, " "))
		cov := nd.MinCover()
		if nd.NumIn() == 0 {
			// A zero-input node (a parsed constant): the cover's universe
			// cube stringifies empty, so spell the constant-1 row directly.
			if cov.Len() > 0 {
				fmt.Fprintln(bw, "1")
			}
			continue
		}
		for _, c := range cov.Cubes {
			fmt.Fprintf(bw, "%s 1\n", c.String())
		}
	}
	for i, s := range nw.POs {
		switch {
		case nw.POConst(i) == 0:
			fmt.Fprintf(bw, ".names o%d\n", i) // no rows: constant 0
		case nw.POConst(i) == 1:
			fmt.Fprintf(bw, ".names o%d\n1\n", i)
		case s >= nw.NumPI && poOf[s] == i:
			// Already emitted as the node named o<i>.
		default:
			fmt.Fprintf(bw, ".names %s o%d\n1 1\n", sigName(s), i)
		}
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

// rawNode is a parsed .names block before topological ordering.
type rawNode struct {
	fanins []string
	output string
	rows   []row
}

type row struct {
	in  string
	out byte
}

// Parse reads a combinational BLIF model into a Network. Supported:
// .model, .inputs, .outputs, .names (with '1' or '0' output plane),
// .end; latches and subcircuits are errors.
func Parse(r io.Reader) (*network.Network, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var (
		inputs, outputs []string
		nodes           []rawNode
		cur             *rawNode
	)
	flush := func() {
		if cur != nil {
			nodes = append(nodes, *cur)
			cur = nil
		}
	}
	for sc.Scan() {
		line := sc.Text()
		for strings.HasSuffix(line, "\\") && sc.Scan() {
			line = strings.TrimSuffix(line, "\\") + sc.Text()
		}
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case ".model":
			// name ignored
		case ".inputs":
			inputs = append(inputs, fields[1:]...)
		case ".outputs":
			outputs = append(outputs, fields[1:]...)
		case ".names":
			flush()
			if len(fields) < 2 {
				return nil, fmt.Errorf("blif: .names needs at least an output")
			}
			cur = &rawNode{fanins: fields[1 : len(fields)-1], output: fields[len(fields)-1]}
		case ".end":
			flush()
		case ".latch", ".subckt", ".gate":
			return nil, fmt.Errorf("blif: unsupported construct %s", fields[0])
		default:
			if strings.HasPrefix(fields[0], ".") {
				// Ignore other directives like .default_input_arrival.
				continue
			}
			if cur == nil {
				return nil, fmt.Errorf("blif: cube row outside .names: %q", line)
			}
			switch len(fields) {
			case 1:
				if len(cur.fanins) != 0 {
					return nil, fmt.Errorf("blif: row %q missing output value", line)
				}
				cur.rows = append(cur.rows, row{in: "", out: fields[0][0]})
			case 2:
				cur.rows = append(cur.rows, row{in: fields[0], out: fields[1][0]})
			default:
				return nil, fmt.Errorf("blif: malformed row %q", line)
			}
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(outputs) == 0 {
		return nil, fmt.Errorf("blif: model declares no outputs")
	}
	return build(inputs, outputs, nodes)
}

func build(inputs, outputs []string, raw []rawNode) (*network.Network, error) {
	byOutput := map[string]*rawNode{}
	for i := range raw {
		rn := &raw[i]
		if _, dup := byOutput[rn.output]; dup {
			return nil, fmt.Errorf("blif: signal %s driven twice", rn.output)
		}
		byOutput[rn.output] = rn
	}
	nw := &network.Network{NumPI: len(inputs)}
	sigOf := map[string]int{}
	for i, name := range inputs {
		sigOf[name] = i
	}

	var visit func(name string, stack map[string]bool) (int, error)
	visit = func(name string, stack map[string]bool) (int, error) {
		if s, ok := sigOf[name]; ok {
			return s, nil
		}
		if stack[name] {
			return 0, fmt.Errorf("blif: combinational cycle through %s", name)
		}
		rn, ok := byOutput[name]
		if !ok {
			return 0, fmt.Errorf("blif: undriven signal %s", name)
		}
		if len(rn.fanins) > network.MaxFanins {
			return 0, fmt.Errorf("blif: node %s has %d fanins (max %d)",
				name, len(rn.fanins), network.MaxFanins)
		}
		stack[name] = true
		defer delete(stack, name)
		fanins := make([]int, len(rn.fanins))
		for i, fn := range rn.fanins {
			s, err := visit(fn, stack)
			if err != nil {
				return 0, err
			}
			fanins[i] = s
		}
		table, err := tableFromRows(len(rn.fanins), rn.rows)
		if err != nil {
			return 0, fmt.Errorf("blif: node %s: %w", name, err)
		}
		nw.Nodes = append(nw.Nodes, network.Node{Fanins: fanins, Table: table})
		s := nw.NumPI + len(nw.Nodes) - 1
		sigOf[name] = s
		return s, nil
	}

	for _, out := range outputs {
		s, err := visit(out, map[string]bool{})
		if err != nil {
			return nil, err
		}
		nw.AddPO(s)
	}
	return nw, nil
}

// tableFromRows converts .names rows into a truth table. All rows must
// share the same output value: '1' rows define the on-set, '0' rows the
// off-set (table = complement of their union). No rows = constant 0.
func tableFromRows(k int, rows []row) (*bitset.Set, error) {
	table := bitset.New(1 << uint(k))
	if len(rows) == 0 {
		return table, nil
	}
	val := rows[0].out
	if val != '0' && val != '1' {
		return nil, fmt.Errorf("output value %q", string(val))
	}
	for _, rw := range rows {
		if rw.out != val {
			return nil, fmt.Errorf("mixed output values in one .names block")
		}
		var c cube.Cube
		if k == 0 {
			c = cube.New(0)
		} else {
			var err error
			c, err = cube.Parse(rw.in)
			if err != nil {
				return nil, err
			}
			if c.NumVars() != k {
				return nil, fmt.Errorf("row width %d, want %d", c.NumVars(), k)
			}
		}
		c.Minterms(func(m uint) { table.Set(int(m)) })
	}
	if val == '0' {
		table = table.Complement()
	}
	return table, nil
}
