// Package pla reads and writes Espresso-format .pla files, the benchmark
// interchange format used by the paper (MCNC benchmarks are distributed
// as .pla with explicit DC output planes).
//
// Supported logic types (.type directive): f, fd (default), fr, fdr, with
// the standard Espresso semantics for which planes the file specifies and
// how the unspecified remainder is completed.
package pla

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"relsyn/internal/cube"
	"relsyn/internal/tt"
)

// Type identifies which of the F (on), D (don't-care), and R (off) planes
// a .pla file specifies.
type Type string

// Supported .pla logic types.
const (
	TypeF   Type = "f"
	TypeFD  Type = "fd"
	TypeFR  Type = "fr"
	TypeFDR Type = "fdr"
)

// Row is one product-term line: an input cube and one output character per
// output ('1' on, '0' off/unused, '-' or '~' don't-care, plus the Espresso
// digit aliases '4', '3', '2').
type Row struct {
	In  cube.Cube
	Out []byte
}

// File is a parsed .pla description.
type File struct {
	NumIn    int
	NumOut   int
	LogicTyp Type
	InNames  []string
	OutNames []string
	Rows     []Row
}

// Parse reads a .pla file. Unknown dot-directives are ignored (Espresso
// itself ignores most of them); malformed cubes, inconsistent widths, and
// missing .i/.o headers are errors.
func Parse(r io.Reader) (*File, error) {
	f := &File{NumIn: -1, NumOut: -1, LogicTyp: TypeFD}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if strings.HasPrefix(fields[0], ".") {
			if err := f.directive(fields); err != nil {
				return nil, fmt.Errorf("pla: line %d: %w", lineNo, err)
			}
			if fields[0] == ".e" || fields[0] == ".end" {
				break
			}
			continue
		}
		if err := f.cubeLine(fields); err != nil {
			return nil, fmt.Errorf("pla: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pla: %w", err)
	}
	if f.NumIn < 0 || f.NumOut < 0 {
		return nil, fmt.Errorf("pla: missing .i or .o header")
	}
	return f, nil
}

func (f *File) directive(fields []string) error {
	switch fields[0] {
	case ".i":
		n, err := parsePositive(fields, ".i")
		if err != nil {
			return err
		}
		if n > tt.MaxInputs {
			// Every spec becomes a dense truth table, so the width is
			// bounded here, before any row is read.
			return fmt.Errorf(".i %d: %w", n, tt.ErrTooWide)
		}
		f.NumIn = n
	case ".o":
		n, err := parsePositive(fields, ".o")
		if err != nil {
			return err
		}
		f.NumOut = n
	case ".type":
		if len(fields) != 2 {
			return fmt.Errorf(".type wants one argument")
		}
		switch Type(fields[1]) {
		case TypeF, TypeFD, TypeFR, TypeFDR:
			f.LogicTyp = Type(fields[1])
		default:
			return fmt.Errorf("unsupported .type %q", fields[1])
		}
	case ".ilb":
		f.InNames = append([]string(nil), fields[1:]...)
	case ".ob":
		f.OutNames = append([]string(nil), fields[1:]...)
	case ".p", ".e", ".end":
		// .p is advisory; .e/.end handled by the caller.
	default:
		// Ignore other directives (.phase, .pair, ...) like Espresso does.
	}
	return nil
}

func parsePositive(fields []string, name string) (int, error) {
	if len(fields) != 2 {
		return 0, fmt.Errorf("%s wants one argument", name)
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("%s argument %q is not a positive integer", name, fields[1])
	}
	return n, nil
}

func (f *File) cubeLine(fields []string) error {
	if f.NumIn < 0 || f.NumOut < 0 {
		return fmt.Errorf("cube before .i/.o header")
	}
	// Cubes may be written "0101 10" or "0101|10" or unspaced "010110".
	joined := strings.Join(fields, "")
	joined = strings.ReplaceAll(joined, "|", "")
	if len(joined) != f.NumIn+f.NumOut {
		return fmt.Errorf("cube %q has %d characters, want %d inputs + %d outputs",
			joined, len(joined), f.NumIn, f.NumOut)
	}
	in, err := cube.Parse(joined[:f.NumIn])
	if err != nil {
		return err
	}
	out := []byte(joined[f.NumIn:])
	for i, ch := range out {
		switch ch {
		case '0', '1', '-', '~', '2', '3', '4':
		default:
			return fmt.Errorf("invalid output character %q at output %d", ch, i)
		}
	}
	f.Rows = append(f.Rows, Row{In: in, Out: out})
	return nil
}

// outKind classifies an output character into the plane it selects.
func outKind(ch byte) tt.Phase {
	switch ch {
	case '1', '4':
		return tt.On
	case '0', '3':
		return tt.Off
	default: // '-', '~', '2'
		return tt.DC
	}
}

// ToFunction interprets the file under its logic type and produces a dense
// truth table. For type fd the off-set is the complement of F∪D; for fr
// the DC-set is the complement of F∪R; for f the function is completely
// specified; for fdr all three planes are explicit and must partition the
// space (an error is returned otherwise).
func (f *File) ToFunction() (*tt.Function, error) {
	if f.NumIn > tt.MaxInputs {
		// Parse refuses such a header; a hand-built File is checked here.
		return nil, fmt.Errorf("pla: %d inputs: %w", f.NumIn, tt.ErrTooWide)
	}
	if f.NumOut <= 0 {
		// Parse rejects ".o 0", but a hand-built File can still carry no
		// outputs; reject it here with the typed sentinel so downstream
		// per-output means never divide by zero.
		return nil, fmt.Errorf("pla: %w", tt.ErrZeroOutputs)
	}
	fn := tt.New(f.NumIn, f.NumOut)
	size := fn.Size()

	// Accumulate explicit planes per output.
	type planes struct{ on, off, dc []bool }
	pl := make([]planes, f.NumOut)
	for o := range pl {
		pl[o] = planes{make([]bool, size), make([]bool, size), make([]bool, size)}
	}
	for _, row := range f.Rows {
		row.In.Minterms(func(m uint) {
			for o := 0; o < f.NumOut; o++ {
				switch outKind(row.Out[o]) {
				case tt.On:
					pl[o].on[m] = true
				case tt.Off:
					if f.LogicTyp == TypeFR || f.LogicTyp == TypeFDR {
						pl[o].off[m] = true
					}
				case tt.DC:
					if f.LogicTyp == TypeFD || f.LogicTyp == TypeFDR {
						pl[o].dc[m] = true
					}
				}
			}
		})
	}
	for o := 0; o < f.NumOut; o++ {
		for m := 0; m < size; m++ {
			on, off, dc := pl[o].on[m], pl[o].off[m], pl[o].dc[m]
			var p tt.Phase
			switch f.LogicTyp {
			case TypeF:
				if on {
					p = tt.On
				}
			case TypeFD:
				switch {
				case dc:
					p = tt.DC // D wins ties, matching Espresso
				case on:
					p = tt.On
				}
			case TypeFR:
				switch {
				case on && off:
					return nil, fmt.Errorf("pla: output %d minterm %d in both F and R", o, m)
				case on:
					p = tt.On
				case off:
					p = tt.Off
				default:
					p = tt.DC
				}
			case TypeFDR:
				n := 0
				if on {
					n++
				}
				if off {
					n++
				}
				if dc {
					n++
				}
				if n > 1 {
					return nil, fmt.Errorf("pla: output %d minterm %d in multiple planes", o, m)
				}
				switch {
				case on:
					p = tt.On
				case dc:
					p = tt.DC
				}
			}
			if p != tt.Off {
				fn.SetPhase(o, m, p)
			}
		}
	}
	return fn, nil
}

// FromFunction serializes a truth table as a type-fd file with one row per
// on-set cube and one per DC cube, using the provided per-output covers.
// Passing nil covers falls back to one row per minterm.
func FromFunction(fn *tt.Function, onCovers, dcCovers []*cube.Cover) *File {
	f := &File{NumIn: fn.NumIn, NumOut: fn.NumOut(), LogicTyp: TypeFD}
	for o := 0; o < fn.NumOut(); o++ {
		on := coverOrMinterms(fn, o, onCovers, fn.OnCover)
		dc := coverOrMinterms(fn, o, dcCovers, fn.DCCover)
		for _, c := range on.Cubes {
			out := zeros(fn.NumOut())
			out[o] = '1'
			f.Rows = append(f.Rows, Row{In: c, Out: out})
		}
		for _, c := range dc.Cubes {
			out := zeros(fn.NumOut())
			out[o] = '-'
			f.Rows = append(f.Rows, Row{In: c, Out: out})
		}
	}
	return f
}

func coverOrMinterms(fn *tt.Function, o int, covers []*cube.Cover, fallback func(int) *cube.Cover) *cube.Cover {
	if covers != nil && o < len(covers) && covers[o] != nil {
		return covers[o]
	}
	return fallback(o)
}

func zeros(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = '0'
	}
	return b
}

// Write serializes the file.
func (f *File) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, ".i %d\n.o %d\n", f.NumIn, f.NumOut)
	if len(f.InNames) == f.NumIn && f.NumIn > 0 {
		fmt.Fprintf(bw, ".ilb %s\n", strings.Join(f.InNames, " "))
	}
	if len(f.OutNames) == f.NumOut && f.NumOut > 0 {
		fmt.Fprintf(bw, ".ob %s\n", strings.Join(f.OutNames, " "))
	}
	if f.LogicTyp != "" && f.LogicTyp != TypeFD {
		fmt.Fprintf(bw, ".type %s\n", f.LogicTyp)
	}
	fmt.Fprintf(bw, ".p %d\n", len(f.Rows))
	for _, row := range f.Rows {
		fmt.Fprintf(bw, "%s %s\n", row.In.String(), string(row.Out))
	}
	fmt.Fprintln(bw, ".e")
	return bw.Flush()
}
