package pla

// A row-materializing reader: every cube line becomes a Row of strings
// rejoined by strings.Fields, and the planes are []bool of 2^n per
// output filled one minterm at a time. It is the reference the
// word-space reader in pla.go must match function for function and
// error for error.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"relsyn/internal/cube"
	"relsyn/internal/tt"
)

func oracleParse(r io.Reader) (*File, error) {
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
			if err := oracleDirective(f, fields); err != nil {
				return nil, fmt.Errorf("pla: line %d: %w", lineNo, err)
			}
			if fields[0] == ".e" || fields[0] == ".end" {
				break
			}
			continue
		}
		if err := oracleCubeLine(f, fields); err != nil {
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

func oracleDirective(f *File, fields []string) error {
	switch fields[0] {
	case ".i":
		n, err := oraclePositive(fields, ".i")
		if err != nil {
			return err
		}
		if n > tt.MaxInputs {
			return fmt.Errorf(".i %d: %w", n, tt.ErrTooWide)
		}
		f.NumIn = n
	case ".o":
		n, err := oraclePositive(fields, ".o")
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
	}
	return nil
}

func oraclePositive(fields []string, name string) (int, error) {
	if len(fields) != 2 {
		return 0, fmt.Errorf("%s wants one argument", name)
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("%s argument %q is not a positive integer", name, fields[1])
	}
	return n, nil
}

func oracleCubeLine(f *File, fields []string) error {
	if f.NumIn < 0 || f.NumOut < 0 {
		return fmt.Errorf("cube before .i/.o header")
	}
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

func oracleOutKind(ch byte) tt.Phase {
	switch ch {
	case '1', '4':
		return tt.On
	case '0', '3':
		return tt.Off
	default:
		return tt.DC
	}
}

func oracleToFunction(f *File) (*tt.Function, error) {
	if f.NumIn > tt.MaxInputs {
		return nil, fmt.Errorf("pla: %d inputs: %w", f.NumIn, tt.ErrTooWide)
	}
	if f.NumOut <= 0 {
		return nil, fmt.Errorf("pla: %w", tt.ErrZeroOutputs)
	}
	fn := tt.New(f.NumIn, f.NumOut)
	size := fn.Size()
	type planes struct{ on, off, dc []bool }
	pl := make([]planes, f.NumOut)
	for o := range pl {
		pl[o] = planes{make([]bool, size), make([]bool, size), make([]bool, size)}
	}
	for _, row := range f.Rows {
		row.In.Minterms(func(m uint) {
			for o := 0; o < f.NumOut; o++ {
				switch oracleOutKind(row.Out[o]) {
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
					p = tt.DC
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

// deviates reports an error by which the word-space reader refuses what
// the oracle accepted (or panicked on): a header that resizes earlier
// rows, or a spec past tt.MaxCells.
func deviates(err error) bool {
	return errors.Is(err, errResized) || errors.Is(err, tt.ErrTooLarge)
}

// agreeWithOracle checks that Parse+ToFunction and the oracle give the
// same function (and so the same HashFunction digest) or the same error
// text. The oracle's planes are not built past maxCells output-minterm
// cells, so a fuzz run stays fast; the parse is compared regardless.
func agreeWithOracle(t *testing.T, src string, maxCells int) {
	t.Helper()
	file, gotErr := Parse(strings.NewReader(src))
	if deviates(gotErr) {
		return
	}
	ofile, wantErr := oracleParse(strings.NewReader(src))
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%q: Parse error %v, oracle %v", src, gotErr, wantErr)
	}
	if gotErr != nil || file.NumOut<<uint(file.NumIn) > maxCells {
		return
	}
	got, gotErr := file.ToFunction()
	if deviates(gotErr) {
		return
	}
	want, wantErr := oracleToFunction(ofile)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%q: ToFunction error %v, oracle %v", src, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%q: %v", src, err)
	}
	if !got.Equal(want) || HashFunction(got) != HashFunction(want) {
		t.Fatalf("%q: function differs from the oracle's", src)
	}
}

// randomSpec writes a .pla text of every .type and row layout: spaced,
// '|'-separated and unspaced rows, comments, blank lines, advisory
// directives, Unicode spaces, headers repeated or resized after rows,
// a .type after rows, and now and then a malformed row.
func randomSpec(rng *rand.Rand) string {
	n, m := 1+rng.Intn(8), 1+rng.Intn(4)
	var b strings.Builder
	fmt.Fprintf(&b, ".i %d\n.o %d\n", n, m)
	types := []string{"", "f", "fd", "fr", "fdr"}
	if ty := types[rng.Intn(len(types))]; ty != "" {
		fmt.Fprintf(&b, ".type %s\n", ty)
	}
	if rng.Intn(4) == 0 {
		b.WriteString(".ilb" + strings.Repeat(" x", n) + "\n.p 9\n")
	}
	inChars, outChars := "01-01-01-2xX", "0101-~234"
	rows := rng.Intn(3 * n)
	for r := 0; r < rows; r++ {
		var in, out []byte
		for i := 0; i < n; i++ {
			in = append(in, inChars[rng.Intn(len(inChars))])
		}
		for o := 0; o < m; o++ {
			out = append(out, outChars[rng.Intn(len(outChars))])
		}
		switch rng.Intn(60) {
		case 0:
			in = in[1:] // short row
		case 1:
			in[rng.Intn(n)] = 'a'
		case 2:
			out[rng.Intn(m)] = 'z'
		case 3:
			fmt.Fprintf(&b, ".o %d\n", m+rng.Intn(2))
		case 4:
			fmt.Fprintf(&b, ".i %d\n", n-rng.Intn(2))
		case 5:
			fmt.Fprintf(&b, ".type %s\n", types[1+rng.Intn(4)])
		case 6:
			b.WriteString("  # a comment line\n\n")
		}
		switch rng.Intn(6) {
		case 0:
			fmt.Fprintf(&b, "%s%s\n", in, out)
		case 1:
			fmt.Fprintf(&b, "%s|%s\n", in, out)
		case 2:
			fmt.Fprintf(&b, "\t%s  %s # note\n", in, out)
		default:
			fmt.Fprintf(&b, "%s %s\n", in, out)
		}
	}
	if rng.Intn(3) > 0 {
		b.WriteString(".e\n")
	}
	return b.String()
}

// The word-space reader agrees with the oracle on 20,000 seeded specs.
func TestParseMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 20000; i++ {
		agreeWithOracle(t, randomSpec(rng), 1<<12)
	}
}
