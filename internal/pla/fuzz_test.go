package pla

import (
	"bytes"
	"strings"
	"testing"

	"relsyn/internal/tt"
)

// FuzzParse checks the parser never panics, that it agrees with the
// oracle (the same function or the same error text, short of the two
// refusals the oracle lacks), and that anything it accepts can be
// converted to a function and re-serialized.
func FuzzParse(f *testing.F) {
	f.Add(".i 3\n.o 2\n01- 10\n1-1 01\n.e\n")
	f.Add(".i 2\n.o 1\n.type fr\n01 1\n10 0\n.e\n")
	f.Add(".i 1\n.o 1\n.ilb a\n.ob z\n0 -\n.e\n")
	f.Add(".i 4\n.o 1\n.p 2\n0101 1\n111- ~\n")
	f.Add("# comment only\n")
	f.Add(".i 3\n.o 1\n011010")
	f.Add(".i 33\n.o 1\n" + strings.Repeat("1", 33) + " 1\n.e\n") // wider than a cube
	f.Add(".i 17\n.o 1\n" + strings.Repeat("-", 17) + " 1\n.e\n") // one past tt.MaxInputs
	f.Add(".i 2\n.o 1\n01 1\n.o 2\n.e")                           // resized after rows
	f.Add(".i 3\n.o 1\n011 1\n.i 2\n.e")
	f.Add(".i 16\n.o 200\n.e")                     // past tt.MaxCells
	f.Add(".i 2\n.o 2\n.type fdr\n1- 1-\n11 01\n") // plane overlap
	f.Add(".i 2\n.o 1\n0\u00a01 1\n|1 0|0\n")      // Unicode space, separators
	f.Fuzz(func(t *testing.T, src string) {
		agreeWithOracle(t, src, 1<<16)
		file, err := Parse(strings.NewReader(src))
		if err != nil {
			return
		}
		if file.NumIn > tt.MaxInputs || file.NumOut > tt.MaxCells>>uint(file.NumIn) {
			t.Fatalf("accepted a .i %d .o %d header", file.NumIn, file.NumOut)
		}
		if file.NumOut<<uint(file.NumIn) > 1<<16 {
			return // a large round trip is slow; parsing alone suffices
		}
		fn, err := file.ToFunction()
		if err != nil {
			return
		}
		if err := fn.Validate(); err != nil {
			t.Fatalf("accepted file produced invalid function: %v", err)
		}
		var buf bytes.Buffer
		if err := FromFunction(fn, nil, nil).Write(&buf); err != nil {
			t.Fatalf("re-serialization failed: %v", err)
		}
		back, err := Parse(&buf)
		if err != nil {
			t.Fatalf("round trip re-parse failed: %v\n%s", err, buf.String())
		}
		fn2, err := back.ToFunction()
		if err != nil {
			t.Fatalf("round trip conversion failed: %v", err)
		}
		if !fn.Equal(fn2) {
			t.Fatal("round trip changed the function")
		}
	})
}
