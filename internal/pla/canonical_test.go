package pla

import (
	"bytes"
	"strings"
	"testing"
)

func parseString(t *testing.T, s string) *File {
	t.Helper()
	f, err := Parse(strings.NewReader(s))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f
}

func hashString(t *testing.T, s string) string {
	t.Helper()
	h, err := parseString(t, s).Hash()
	if err != nil {
		t.Fatalf("hash: %v", err)
	}
	return h
}

const basePLA = `
.i 3
.o 2
01- 10
1-1 01
000 -0
.e
`

// Permuting cube order must not change the canonical form or the hash.
func TestCanonicalPermutedCubes(t *testing.T) {
	permuted := `
.i 3
.o 2
000 -0
1-1 01
01- 10
.e
`
	if hashString(t, basePLA) != hashString(t, permuted) {
		t.Fatal("permuted cube order changed the hash")
	}
	c1, err := parseString(t, basePLA).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := parseString(t, permuted).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if err := c1.Write(&b1); err != nil {
		t.Fatal(err)
	}
	if err := c2.Write(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatalf("canonical forms differ:\n%s\n---\n%s", b1.String(), b2.String())
	}
}

// Redundant (duplicated or overlapping) cubes must not change the hash:
// identity is the denoted function, not the cover.
func TestCanonicalRedundantCubes(t *testing.T) {
	redundant := `
.i 3
.o 2
01- 10
010 10
011 10
1-1 01
111 01
000 -0
.e
`
	if hashString(t, basePLA) != hashString(t, redundant) {
		t.Fatal("redundant cubes changed the hash")
	}
}

// The same function encoded under different logic types (fd vs fr) must
// hash identically.
func TestCanonicalLogicTypeInvariance(t *testing.T) {
	// f(a) = a1' with minterm 0 DC, over .i 1 .o 1... use a 2-input spec:
	// on = {01,11} for output 0; minterm 00 DC; 10 off.
	fd := `
.i 2
.o 1
-1 1
00 -
.e
`
	fr := `
.i 2
.o 1
.type fr
-1 1
10 0
.e
`
	if hashString(t, fd) != hashString(t, fr) {
		t.Fatal("fd and fr encodings of the same function hash differently")
	}
}

// Cosmetic metadata (names, .p) must not affect the hash; semantic
// differences (extra on-minterm, DC vs off, dimensions) must.
func TestCanonicalSensitivity(t *testing.T) {
	named := `
.i 3
.o 2
.ilb a b c
.ob x y
.p 3
01- 10
1-1 01
000 -0
.e
`
	if hashString(t, basePLA) != hashString(t, named) {
		t.Fatal("signal names changed the hash")
	}
	cases := []string{
		// extra on-set minterm
		".i 3\n.o 2\n01- 10\n1-1 01\n000 -0\n110 10\n.e\n",
		// DC flipped to on
		".i 3\n.o 2\n01- 10\n1-1 01\n000 10\n.e\n",
		// different output count
		".i 3\n.o 1\n01- 1\n.e\n",
		// different input count
		".i 4\n.o 2\n01-- 10\n1-1- 01\n000- -0\n.e\n",
	}
	base := hashString(t, basePLA)
	for i, c := range cases {
		if hashString(t, c) == base {
			t.Fatalf("case %d: semantically different spec collided", i)
		}
	}
}

// Canonicalization is idempotent: Canonical(Canonical(f)) writes the
// same bytes, and re-parsing a canonical form preserves the hash.
func TestCanonicalIdempotent(t *testing.T) {
	f := parseString(t, basePLA)
	c1, err := f.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	var b1 bytes.Buffer
	if err := c1.Write(&b1); err != nil {
		t.Fatal(err)
	}
	re := parseString(t, b1.String())
	c2, err := re.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	var b2 bytes.Buffer
	if err := c2.Write(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatalf("canonicalization not idempotent:\n%s\n---\n%s", b1.String(), b2.String())
	}
	h1, err := f.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := re.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatal("round-trip through canonical form changed the hash")
	}
}

// FuzzCanonicalPLA checks, for every parseable input, that (1) the
// canonical form re-parses, (2) its hash matches the original, and
// (3) canonicalization is a fixed point after one application.
func FuzzCanonicalPLA(f *testing.F) {
	f.Add(basePLA)
	f.Add(".i 2\n.o 1\n-1 1\n00 -\n.e\n")
	f.Add(".i 2\n.o 1\n.type fr\n-1 1\n10 0\n.e\n")
	f.Add(".i 1\n.o 1\n1 1\n.e\n")
	f.Add(".i 4\n.o 2\n01-- 10\n1-1- 01\n000- -0\n.e\n")
	f.Fuzz(func(t *testing.T, data string) {
		pf, err := Parse(strings.NewReader(data))
		if err != nil {
			return
		}
		if pf.NumIn > 12 { // keep dense expansion cheap under fuzzing
			return
		}
		h1, err := pf.Hash()
		if err != nil {
			return // e.g. fdr plane overlap: not a canonicalizable spec
		}
		c1, err := pf.Canonical()
		if err != nil {
			t.Fatalf("Hash succeeded but Canonical failed: %v", err)
		}
		var b1 bytes.Buffer
		if err := c1.Write(&b1); err != nil {
			t.Fatalf("write canonical: %v", err)
		}
		re, err := Parse(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\n%s", err, b1.String())
		}
		h2, err := re.Hash()
		if err != nil {
			t.Fatalf("re-hash: %v", err)
		}
		if h1 != h2 {
			t.Fatalf("canonical round trip changed hash:\n%s", b1.String())
		}
		c2, err := re.Canonical()
		if err != nil {
			t.Fatalf("re-canonicalize: %v", err)
		}
		var b2 bytes.Buffer
		if err := c2.Write(&b2); err != nil {
			t.Fatal(err)
		}
		if b1.String() != b2.String() {
			t.Fatalf("canonicalization not a fixed point:\n%s\n---\n%s", b1.String(), b2.String())
		}
	})
}

// ParseSpec is the request-body parse: it refuses blank and malformed
// text, and its hash is the file's content hash.
func TestParseSpec(t *testing.T) {
	for _, bad := range []string{"", " \n\t", ".i 2\n.o 1\n11 2x\n.e\n"} {
		if _, _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) accepted", bad)
		}
	}
	const text = ".i 3\n.o 1\n01- 1\n111 1\n000 -\n.e\n"
	fn, hash, err := ParseSpec(text)
	if err != nil {
		t.Fatal(err)
	}
	if fn.NumIn != 3 || fn.NumOut() != 1 {
		t.Fatalf("function is %d-in %d-out, want 3-in 1-out", fn.NumIn, fn.NumOut())
	}
	if want := hashString(t, text); hash != want {
		t.Fatalf("hash %s, want the file hash %s", hash, want)
	}
}
