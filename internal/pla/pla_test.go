package pla

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

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

func TestParseBasics(t *testing.T) {
	f, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumIn != 3 || f.NumOut != 2 || f.LogicTyp != TypeFD {
		t.Fatalf("header wrong: %+v", f)
	}
	if len(f.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(f.Rows))
	}
	if f.Rows[0].In.String() != "01-" || string(f.Rows[0].Out) != "10" {
		t.Fatalf("row 0 = %s %s", f.Rows[0].In, f.Rows[0].Out)
	}
	if len(f.InNames) != 3 || f.InNames[2] != "c" || f.OutNames[1] != "g" {
		t.Fatal("names not parsed")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		".i 3\n.o 1\n01 1\n",     // short cube
		".i 0\n.o 1\n",           // non-positive .i
		".i 3\n.o 1\n01a 1\n",    // bad input char
		".i 3\n.o 1\n011 z\n",    // bad output char
		"011 1\n",                // cube before header
		".i 3\n011 1\n",          // missing .o
		".i 3\n.o 1\n.type xy\n", // bad type
		".i 33\n.o 1\n",          // wider than tt.MaxInputs
	}
	for _, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("no error for %q", src)
		}
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
	f, err := Parse(strings.NewReader(top))
	if err != nil || len(f.Rows) != 1 {
		t.Fatalf(".i %d: %v", tt.MaxInputs, err)
	}
	if _, err := f.ToFunction(); err != nil {
		t.Fatalf(".i %d: ToFunction: %v", tt.MaxInputs, err)
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

func TestUnspacedCube(t *testing.T) {
	src := ".i 3\n.o 2\n01110\n.e\n"
	f, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if f.Rows[0].In.String() != "011" || string(f.Rows[0].Out) != "10" {
		t.Fatalf("unspaced cube parsed as %s %s", f.Rows[0].In, f.Rows[0].Out)
	}
}

func TestStopsAtDotE(t *testing.T) {
	src := ".i 2\n.o 1\n11 1\n.e\ngarbage that must be ignored\n"
	f, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != 1 {
		t.Fatal("content after .e not ignored")
	}
}
