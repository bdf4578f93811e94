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
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"strconv"
	"strings"
	"unicode/utf8"

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
// digit aliases '4', '3', '2'; any other character is an error).
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
	// Rows are product-term rows: what FromFunction builds for Write,
	// or hand-built input to ToFunction. Parse leaves them empty: it
	// writes each row it reads straight into the file's planes.
	Rows []Row

	planes *planes // the rows Parse read; nil before the first
}

// planes holds the explicit F (on), R (off) and D (dc) planes of every
// output as bitset words (minterm m at bit m%64 of word m/64). Plane k
// of output o is words[(k·numOut+o)·nw:][:nw], k ∈ {planeOn, planeOff,
// planeDC}.
type planes struct {
	numIn, numOut int
	nw            int // words per output plane
	words         []uint64
}

// Plane indices, and the plane each output character selects: '1' and
// '4' on, '0' and '3' off, '-', '~' and '2' dc, anything else badOut.
const (
	planeOn = iota
	planeOff
	planeDC
	badOut
)

var planeOf = func() (k [256]uint8) {
	for i := range k {
		k[i] = badOut
	}
	k['1'], k['4'] = planeOn, planeOn
	k['0'], k['3'] = planeOff, planeOff
	k['-'], k['~'], k['2'] = planeDC, planeDC, planeDC
	return k
}()

func newPlanes(numIn, numOut int) *planes {
	nw := (1<<uint(numIn) + 63) / 64
	return &planes{numIn: numIn, numOut: numOut, nw: nw, words: make([]uint64, 3*numOut*nw)}
}

// plane returns plane k of output o.
func (p *planes) plane(k, o int) []uint64 {
	return p.words[(k*p.numOut+o)*p.nw:][:p.nw]
}

// add writes one row: for every word of the cube's span, the row's
// minterms in that word go into the plane each output character
// selects. An output character that selects no plane is an error, and
// the planes are then partly written.
func (p *planes) add(in cube.Cube, out []byte) error {
	for i, m := range cube.Words(in.Span()) {
		for o, ch := range out {
			k := planeOf[ch]
			if k == badOut {
				return fmt.Errorf("invalid output character %q at output %d", ch, o)
			}
			p.words[(int(k)*p.numOut+o)*p.nw+i] |= m
		}
	}
	return nil
}

// errResized marks a .i or .o header that changes a width after cube
// rows were read at the old one.
var errResized = errors.New("header resizes earlier cube rows")

// Parse reads a .pla file. Unknown dot-directives are ignored (Espresso
// itself ignores most of them); malformed cubes, inconsistent widths, and
// missing .i/.o headers are errors, and so is a spec wider than
// tt.MaxInputs or larger than tt.MaxCells. Cube rows go straight into
// per-output bitset planes; File.Rows stays empty.
func Parse(r io.Reader) (*File, error) {
	f := &File{NumIn: -1, NumOut: -1, LogicTyp: TypeFD}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	var row []byte // the current cube row's characters, reused
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		var first int
		var ascii bool
		row, first, ascii = squeeze(row[:0], line)
		var fields []string
		if !ascii {
			// strings.Fields also splits on Unicode spaces.
			if fields = fieldsOf(line); len(fields) > 0 {
				first = int(fields[0][0])
			}
		}
		switch {
		case first < 0:
			continue
		case first == '.':
			if fields == nil {
				fields = fieldsOf(line)
			}
			if err := f.directive(fields); err != nil {
				return nil, fmt.Errorf("pla: line %d: %w", lineNo, err)
			}
			if fields[0] == ".e" || fields[0] == ".end" {
				return f.finish(sc)
			}
			continue
		case !ascii:
			row = append(row[:0], strings.ReplaceAll(strings.Join(fields, ""), "|", "")...)
		}
		if err := f.cubeRow(row); err != nil {
			return nil, fmt.Errorf("pla: line %d: %w", lineNo, err)
		}
	}
	return f.finish(sc)
}

// fieldsOf splits a line, less its '#' comment, into fields.
func fieldsOf(line []byte) []string {
	if i := bytes.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	return strings.Fields(string(line))
}

// finish reports a read error or a missing header once Parse stops.
func (f *File) finish(sc *bufio.Scanner) (*File, error) {
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pla: %w", err)
	}
	if f.NumIn < 0 || f.NumOut < 0 {
		return nil, fmt.Errorf("pla: missing .i or .o header")
	}
	return f, nil
}

// Byte classes of a line, for squeeze.
const (
	keep    = iota
	space   // a byte strings.Fields splits an ASCII line on
	pipe    // the '|' separating inputs from outputs
	comment // '#', which ends the line
	nonASCII
)

var byteClass = func() (c [256]uint8) {
	for _, b := range "\t\n\v\f\r " {
		c[b] = space
	}
	c['|'] = pipe
	c['#'] = comment
	for b := utf8.RuneSelf; b < len(c); b++ {
		c[b] = nonASCII
	}
	return c
}()

// squeeze appends line's characters up to any '#' to dst, less its
// spaces and '|' separators, so "01-1 10", "01-1|10" and "01-110" give
// one row, and returns the line's first non-space byte (-1 for a blank
// line). ascii is false, and the result unusable, for a line with a
// non-ASCII byte before any '#'.
func squeeze(dst, line []byte) (row []byte, first int, ascii bool) {
	first = -1
	for i, b := range line {
		c := byteClass[b]
		if c == space {
			continue
		}
		if c == keep || c == pipe {
			first = int(b)
		}
		line = line[i:]
		break
	}
	for _, b := range line {
		switch byteClass[b] {
		case keep:
			dst = append(dst, b)
		case comment:
			return dst, first, true
		case nonASCII:
			return dst, -1, false
		}
	}
	return dst, first, true
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
		if f.planes != nil && n != f.NumIn {
			return fmt.Errorf("%w: .i %d after rows read with .i %d", errResized, n, f.NumIn)
		}
		f.NumIn = n
		return f.checkCells()
	case ".o":
		n, err := parsePositive(fields, ".o")
		if err != nil {
			return err
		}
		if f.planes != nil && n != f.NumOut {
			return fmt.Errorf("%w: .o %d after rows read with .o %d", errResized, n, f.NumOut)
		}
		f.NumOut = n
		return f.checkCells()
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

// checkCells refuses a spec whose dense table would exceed tt.MaxCells,
// as soon as both of its headers are known.
func (f *File) checkCells() error {
	if f.NumIn >= 0 && f.NumOut > tt.MaxCells>>uint(f.NumIn) {
		return fmt.Errorf(".i %d .o %d: %w", f.NumIn, f.NumOut, tt.ErrTooLarge)
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

// cubeRow checks one cube row's characters (inputs then outputs, with
// the separators squeezed out) and writes it into the planes.
func (f *File) cubeRow(chars []byte) error {
	if f.NumIn < 0 || f.NumOut < 0 {
		return fmt.Errorf("cube before .i/.o header")
	}
	if len(chars) != f.NumIn+f.NumOut {
		return fmt.Errorf("cube %q has %d characters, want %d inputs + %d outputs",
			chars, len(chars), f.NumIn, f.NumOut)
	}
	in, err := cube.Parse(chars[:f.NumIn])
	if err != nil {
		return err
	}
	if f.planes == nil {
		f.planes = newPlanes(f.NumIn, f.NumOut)
	}
	return f.planes.add(in, chars[f.NumIn:])
}

// ToFunction interprets the file under its logic type and produces a dense
// truth table. For type fd the off-set is the complement of F∪D; for fr
// the DC-set is the complement of F∪R; for f the function is completely
// specified; for fdr all three planes are explicit and must partition the
// space (an error is returned otherwise). The planes are the rows Parse
// read plus f.Rows; the type is applied to them a word at a time.
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
	if err := f.checkCells(); err != nil {
		return nil, fmt.Errorf("pla: %w", err)
	}
	p := f.planes
	if p != nil && (p.numIn != f.NumIn || p.numOut != f.NumOut) {
		return nil, fmt.Errorf("pla: %w: .i %d .o %d after rows read with .i %d .o %d",
			errResized, f.NumIn, f.NumOut, p.numIn, p.numOut)
	}
	if p == nil || len(f.Rows) > 0 {
		p = newPlanes(f.NumIn, f.NumOut)
		if f.planes != nil {
			copy(p.words, f.planes.words)
		}
		for i, row := range f.Rows {
			if row.In.NumVars() != f.NumIn || len(row.Out) != f.NumOut {
				return nil, fmt.Errorf("pla: row %d is %d inputs + %d outputs, want %d + %d",
					i, row.In.NumVars(), len(row.Out), f.NumIn, f.NumOut)
			}
			if err := p.add(row.In, row.Out); err != nil {
				return nil, fmt.Errorf("pla: row %d: %w", i, err)
			}
		}
	}
	valid := ^uint64(0) // the bits of a word that are minterms
	if f.NumIn < 6 {
		valid = uint64(1)<<(uint(1)<<uint(f.NumIn)) - 1
	}
	fn := tt.New(f.NumIn, f.NumOut)
	for o, out := range fn.Outs {
		on, off, dc := p.plane(planeOn, o), p.plane(planeOff, o), p.plane(planeDC, o)
		fon, fdc := out.On.Words(), out.DC.Words()
		switch f.LogicTyp {
		case TypeF:
			copy(fon, on)
		case TypeFD:
			for i := range fon {
				fon[i] = on[i] &^ dc[i] // D wins ties, matching Espresso
				fdc[i] = dc[i]
			}
		case TypeFR:
			for i := range fon {
				if x := on[i] & off[i]; x != 0 {
					return nil, fmt.Errorf("pla: output %d minterm %d in both F and R", o, i<<6|bits.TrailingZeros64(x))
				}
				fon[i] = on[i]
				fdc[i] = ^(on[i] | off[i]) & valid
			}
		case TypeFDR:
			for i := range fon {
				if x := on[i]&off[i] | on[i]&dc[i] | off[i]&dc[i]; x != 0 {
					return nil, fmt.Errorf("pla: output %d minterm %d in multiple planes", o, i<<6|bits.TrailingZeros64(x))
				}
				fon[i] = on[i]
				fdc[i] = dc[i]
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
