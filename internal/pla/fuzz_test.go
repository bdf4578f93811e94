package pla

import (
	"bytes"
	"strings"
	"testing"

	"relsyn/internal/tt"
)

// FuzzParse checks the parser never panics and that anything it accepts
// can be converted to a function and re-serialized.
func FuzzParse(f *testing.F) {
	f.Add(".i 3\n.o 2\n01- 10\n1-1 01\n.e\n")
	f.Add(".i 2\n.o 1\n.type fr\n01 1\n10 0\n.e\n")
	f.Add(".i 1\n.o 1\n.ilb a\n.ob z\n0 -\n.e\n")
	f.Add(".i 4\n.o 1\n.p 2\n0101 1\n111- ~\n")
	f.Add("# comment only\n")
	f.Add(".i 3\n.o 1\n011010")
	f.Add(".i 33\n.o 1\n" + strings.Repeat("1", 33) + " 1\n.e\n") // wider than a cube
	f.Add(".i 17\n.o 1\n" + strings.Repeat("-", 17) + " 1\n.e\n") // one past tt.MaxInputs
	f.Fuzz(func(t *testing.T, src string) {
		file, err := Parse(strings.NewReader(src))
		if err != nil {
			return
		}
		if file.NumIn > tt.MaxInputs {
			t.Fatalf("accepted a %d-input header", file.NumIn)
		}
		if file.NumIn > 12 {
			return // dense conversion would be huge; parsing alone suffices
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
