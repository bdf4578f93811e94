package pla

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"relsyn/internal/cube"
	"relsyn/internal/tt"
)

const sample = `
# a small fd-type example
.i 3
.o 2
.ilb a b c
.ob f g
.p 4
01- 10
1-1 01
111 1-
000 -0
.e
`

// phases renders output o of fn one character per minterm, in minterm
// order: '1' on, '-' don't-care, '0' off.
func phases(fn *tt.Function, o int) string {
	b := make([]byte, fn.Size())
	for m := range b {
		b[m] = "01-"[fn.Phase(o, m)]
	}
	return string(b)
}

// mustFunction parses src and converts it, failing the test on error.
func mustFunction(t *testing.T, src string) (*File, *tt.Function) {
	t.Helper()
	f, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	fn, err := f.ToFunction()
	if err != nil {
		t.Fatal(err)
	}
	return f, fn
}

func TestParseBasics(t *testing.T) {
	f, fn := mustFunction(t, sample)
	if f.NumIn != 3 || f.NumOut != 2 || f.LogicTyp != TypeFD {
		t.Fatalf("header wrong: %+v", f)
	}
	if len(f.Rows) != 0 {
		t.Fatalf("Parse filled %d rows; it writes them into planes", len(f.Rows))
	}
	// Out 0: on 01- (2, 6) and 111 (7), dc 000 (0). Out 1: on 1-1 (5,
	// 7), dc 111 (7), and D wins the tie at 7.
	if got := phases(fn, 0); got != "-0100011" {
		t.Fatalf("output 0 phases %s, want -0100011", got)
	}
	if got := phases(fn, 1); got != "0000010-" {
		t.Fatalf("output 1 phases %s, want 0000010-", got)
	}
	if len(f.InNames) != 3 || f.InNames[2] != "c" || f.OutNames[1] != "g" {
		t.Fatal("names not parsed")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{".i 3\n.o 1\n01 1\n", `line 3: cube "011" has 3 characters`}, // short cube
		{".i 0\n.o 1\n", "line 1: .i argument"},                       // non-positive .i
		{".i 3\n.o 1\n01a 1\n", "line 3: cube: invalid literal character 'a' at position 2"},
		{".i 3\n.o 1\n011 z\n", "line 3: invalid output character 'z' at output 0"},
		{"011 1\n", "line 1: cube before .i/.o header"},
		{".i 3\n011 1\n", "line 2: cube before .i/.o header"}, // missing .o
		{".i 3\n.o 1\n.type xy\n", "line 3: unsupported .type"},
		{".i 33\n.o 1\n", "line 1: .i 33"}, // wider than tt.MaxInputs
		// A header that resizes rows already read.
		{".i 2\n.o 1\n01 1\n.o 2\n.e", "line 4: header resizes earlier cube rows: .o 2 after rows read with .o 1"},
		{".i 3\n.o 1\n011 1\n.i 2\n.e", "line 4: header resizes earlier cube rows: .i 2 after rows read with .i 3"},
		{".i 2\n.o 1\n01 1\n.i 3\n.e", "line 4: header resizes earlier cube rows: .i 3 after rows read with .i 2"},
		// More than tt.MaxCells cells, refused at the second header.
		{".i 16\n.o 200\n.e", "line 2: .i 16 .o 200: " + tt.ErrTooLarge.Error()},
		{".o 100000\n.i 16\n.e", "line 2: .i 16 .o 100000"},
	}
	for _, tc := range cases {
		_, err := Parse(strings.NewReader(tc.src))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: err = %v, want it to contain %q", tc.src, err, tc.want)
		}
	}
	// The same header again after rows changes nothing.
	if _, fn := mustFunction(t, ".i 2\n.o 1\n01 1\n.i 2\n.o 1\n11 1\n.e"); phases(fn, 0) != "0011" {
		t.Fatalf("repeated header: phases %s, want 0011", phases(fn, 0))
	}
}

// NumOut·2^NumIn is bounded by tt.MaxCells as soon as both headers are
// known, before a single plane is allocated; a spec at the bound parses,
// and a hand-built File past it is refused by ToFunction.
func TestParseBoundsCells(t *testing.T) {
	over := fmt.Sprintf(".i %d\n.o %d\n.e\n", tt.MaxInputs, tt.MaxCells>>tt.MaxInputs+1)
	if _, err := Parse(strings.NewReader(over)); !errors.Is(err, tt.ErrTooLarge) {
		t.Fatalf("%q: err = %v, want tt.ErrTooLarge", over, err)
	}
	huge := ".i 16\n.o 9223372036854775807\n"
	if _, err := Parse(strings.NewReader(huge)); !errors.Is(err, tt.ErrTooLarge) {
		t.Fatalf("%q: err = %v, want tt.ErrTooLarge", huge, err)
	}
	at := fmt.Sprintf(".i 12\n.o %d\n%s %s\n.e\n", tt.MaxCells>>12,
		strings.Repeat("-", 12), strings.Repeat("1", tt.MaxCells>>12))
	_, fn := mustFunction(t, at)
	if got := fn.Outs[len(fn.Outs)-1].On.Count(); got != 1<<12 {
		t.Fatalf("spec at tt.MaxCells: last output has %d on-minterms, want %d", got, 1<<12)
	}
	built := &File{NumIn: 16, NumOut: tt.MaxCells>>16 + 1, LogicTyp: TypeFD}
	if _, err := built.ToFunction(); !errors.Is(err, tt.ErrTooLarge) {
		t.Fatalf("hand-built %d×2^16: ToFunction = %v, want tt.ErrTooLarge", built.NumOut, err)
	}
}

// A header wider than tt.MaxInputs is refused at line 1, before any row
// is read, with tt.ErrTooWide, and so is a hand-built File that wide;
// the widest admitted header still parses its rows and converts to a
// function.
func TestParseBoundsInputWidth(t *testing.T) {
	wide := fmt.Sprintf(".i %d\n.o 1\n%s 1\n.e\n", tt.MaxInputs+1, strings.Repeat("1", tt.MaxInputs+1))
	_, err := Parse(strings.NewReader(wide))
	if err == nil || !strings.Contains(err.Error(), "line 1") || !errors.Is(err, tt.ErrTooWide) {
		t.Fatalf("wide header: err = %v, want a line-1 tt.ErrTooWide", err)
	}
	built := &File{NumIn: tt.MaxInputs + 1, NumOut: 1, LogicTyp: TypeFD}
	if _, err := built.ToFunction(); !errors.Is(err, tt.ErrTooWide) {
		t.Fatalf("hand-built .i %d: ToFunction = %v, want tt.ErrTooWide", built.NumIn, err)
	}
	top := fmt.Sprintf(".i %d\n.o 1\n%s 1\n.e\n", tt.MaxInputs, strings.Repeat("-", tt.MaxInputs))
	if _, fn := mustFunction(t, top); fn.Outs[0].On.Count() != 1<<tt.MaxInputs {
		t.Fatalf(".i %d: the all-free row set %d minterms", tt.MaxInputs, fn.Outs[0].On.Count())
	}
}

func TestToFunctionFD(t *testing.T) {
	f, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	fn, err := f.ToFunction()
	if err != nil {
		t.Fatal(err)
	}
	// Output 0 (f): on = cubes "01-" and "111"; DC = "000".
	// minterm encoding: variable a is bit 0 (leftmost char).
	// "01-": a=0,b=1 -> minterms 0b010=2 (c=0), 0b110=6 (c=1).
	for _, m := range []int{2, 6, 7} {
		if fn.Phase(0, m) != tt.On {
			t.Errorf("out0 minterm %d = %v, want on", m, fn.Phase(0, m))
		}
	}
	if fn.Phase(0, 0) != tt.DC {
		t.Errorf("out0 minterm 0 = %v, want dc", fn.Phase(0, 0))
	}
	if fn.Phase(0, 1) != tt.Off {
		t.Errorf("out0 minterm 1 = %v, want off", fn.Phase(0, 1))
	}
	// Output 1 (g): on = "1-1" -> a=1,c=1 -> minterms 0b101=5, 0b111=7; DC="111"=7.
	// D wins ties under fd, so 7 is DC.
	if fn.Phase(1, 5) != tt.On {
		t.Errorf("out1 minterm 5 = %v, want on", fn.Phase(1, 5))
	}
	if fn.Phase(1, 7) != tt.DC {
		t.Errorf("out1 minterm 7 = %v, want dc (D wins)", fn.Phase(1, 7))
	}
}

func TestToFunctionFR(t *testing.T) {
	src := `
.i 2
.o 1
.type fr
01 1
10 0
.e
`
	f, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	fn, err := f.ToFunction()
	if err != nil {
		t.Fatal(err)
	}
	// minterm: a bit0, b bit1. "01" = a=0,b=1 = 2; "10" = 1.
	if fn.Phase(0, 2) != tt.On || fn.Phase(0, 1) != tt.Off {
		t.Fatal("explicit F/R planes wrong")
	}
	// Unspecified minterms are DC under fr.
	if fn.Phase(0, 0) != tt.DC || fn.Phase(0, 3) != tt.DC {
		t.Fatal("fr remainder should be DC")
	}
}

func TestToFunctionFRConflict(t *testing.T) {
	src := ".i 2\n.o 1\n.type fr\n01 1\n-1 0\n.e\n"
	f, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ToFunction(); err == nil {
		t.Fatal("expected F/R overlap error")
	}
}

func TestToFunctionTypeF(t *testing.T) {
	src := ".i 2\n.o 1\n.type f\n11 1\n00 -\n.e\n"
	f, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	fn, err := f.ToFunction()
	if err != nil {
		t.Fatal(err)
	}
	if fn.Phase(0, 3) != tt.On {
		t.Fatal("F plane wrong")
	}
	// '-' has no meaning under type f; everything else is off.
	if !fn.CompletelySpecified() {
		t.Fatal("type f should be completely specified")
	}
}

func TestToFunctionFDR(t *testing.T) {
	src := ".i 2\n.o 1\n.type fdr\n11 1\n00 -\n01 0\n10 0\n.e\n"
	f, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	fn, err := f.ToFunction()
	if err != nil {
		t.Fatal(err)
	}
	if fn.Phase(0, 3) != tt.On || fn.Phase(0, 0) != tt.DC ||
		fn.Phase(0, 1) != tt.Off || fn.Phase(0, 2) != tt.Off {
		t.Fatal("fdr planes wrong")
	}
}

func TestRoundTripRandomFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(6)
		m := 1 + rng.Intn(4)
		fn := tt.New(n, m)
		for o := 0; o < m; o++ {
			for mm := 0; mm < fn.Size(); mm++ {
				fn.SetPhase(o, mm, tt.Phase(rng.Intn(3)))
			}
		}
		file := FromFunction(fn, nil, nil)
		var buf bytes.Buffer
		if err := file.Write(&buf); err != nil {
			t.Fatal(err)
		}
		parsed, err := Parse(&buf)
		if err != nil {
			t.Fatalf("trial %d: %v\n", trial, err)
		}
		back, err := parsed.ToFunction()
		if err != nil {
			t.Fatal(err)
		}
		if !fn.Equal(back) {
			t.Fatalf("trial %d: round trip mismatch (n=%d m=%d)", trial, n, m)
		}
	}
}

func TestWriteFormat(t *testing.T) {
	fn := tt.New(2, 1)
	fn.SetPhase(0, 3, tt.On)
	fn.SetPhase(0, 0, tt.DC)
	var buf bytes.Buffer
	if err := FromFunction(fn, nil, nil).Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{".i 2", ".o 1", "11 1", "00 -", ".e"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// A cube row may be spaced, '|'-separated or unspaced; all three are
// one row.
func TestUnspacedCube(t *testing.T) {
	for _, row := range []string{"01110", "011 10", "011|10", "0 1 1 | 1 0"} {
		_, fn := mustFunction(t, ".i 3\n.o 2\n"+row+"\n.e\n")
		// 011 is a=0, b=1, c=1: minterm 6.
		if phases(fn, 0) != "00000010" || phases(fn, 1) != "00000000" {
			t.Fatalf("%q parsed as %s %s", row, phases(fn, 0), phases(fn, 1))
		}
	}
}

func TestStopsAtDotE(t *testing.T) {
	src := ".i 2\n.o 1\n11 1\n.e\ngarbage that must be ignored\n00 1\n"
	if _, fn := mustFunction(t, src); phases(fn, 0) != "0001" {
		t.Fatalf("content after .e not ignored: phases %s, want 0001", phases(fn, 0))
	}
}

// Rows in File.Rows go through the same row writer as the rows Parse
// reads, and the two add up; a row of the wrong width is an error.
func TestToFunctionRows(t *testing.T) {
	f, err := Parse(strings.NewReader(".i 2\n.o 1\n11 1\n.e\n"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := cube.Parse("0-")
	if err != nil {
		t.Fatal(err)
	}
	f.Rows = append(f.Rows, Row{In: c, Out: []byte("-")})
	fn, err := f.ToFunction()
	if err != nil {
		t.Fatal(err)
	}
	if got := phases(fn, 0); got != "-0-1" {
		t.Fatalf("parsed plus hand-built rows: phases %s, want -0-1", got)
	}
	f.Rows = append(f.Rows, Row{In: c, Out: []byte("11")})
	if _, err := f.ToFunction(); err == nil {
		t.Fatal("a row with two outputs in a one-output file was accepted")
	}
	f.Rows[len(f.Rows)-1].Out = []byte("z")
	if _, err := f.ToFunction(); err == nil || !strings.Contains(err.Error(), "row 1: invalid output character 'z'") {
		t.Fatalf("a row with output 'z': err = %v", err)
	}
}
