// Canonicalization and content hashing of .pla specifications.
//
// Two .pla files that denote the same incompletely specified function —
// regardless of cube order, redundant/overlapping cubes, logic type
// (fd vs fr vs fdr encodings of the same partition), or cosmetic
// directives — must canonicalize to byte-identical normal forms and hash
// to the same digest. The synthesis service (internal/server) keys its
// in-flight coalescing and result cache on this digest, so stability and
// collision-freedom across semantically distinct specs are load-bearing;
// see the tests and FuzzCanonicalPLA in canonical_test.go.
package pla

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"strings"

	"relsyn/internal/tt"
)

// hashDomain versions the digest; bump when the encoding changes so
// persisted caches cannot alias across incompatible layouts.
const hashDomain = "relsyn/pla/v1\n"

// Canonical returns the semantic normal form of f: a type-fd file with
// one minterm row per on-set or DC minterm, emitted output-major in
// increasing minterm order, with all cosmetic metadata (signal names,
// advisory directives) dropped. Files denoting the same function produce
// byte-identical canonical forms under Write. The receiver is unchanged.
func (f *File) Canonical() (*File, error) {
	fn, err := f.ToFunction()
	if err != nil {
		return nil, err
	}
	return FromFunction(fn, nil, nil), nil
}

// Hash returns a stable hex digest of the file's semantics: the dense
// (on, dc) partition it denotes, independent of cube order, redundancy,
// logic type, and naming. Files with different input/output counts or
// differing phases never collide short of a SHA-256 collision.
func (f *File) Hash() (string, error) {
	fn, err := f.ToFunction()
	if err != nil {
		return "", err
	}
	return HashFunction(fn), nil
}

// HashFunction returns the stable content digest of a dense function.
// It is the single source of truth for spec identity across the CLI,
// the server cache, and future persisted artifacts. The function's Name
// is deliberately excluded: identity is semantic.
func HashFunction(fn *tt.Function) string {
	h := sha256.New()
	h.Write([]byte(hashDomain))
	var buf [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	writeU64(uint64(fn.NumIn))
	writeU64(uint64(fn.NumOut()))
	for _, o := range fn.Outs {
		// Words() zero-pads past Len, so equal functions serialize
		// identically word-for-word.
		for _, w := range o.On.Words() {
			writeU64(w)
		}
		for _, w := range o.DC.Words() {
			writeU64(w)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ParseSpec turns a submission's .pla text into its dense function and
// content hash: the one parse both relsynd and relsyn-router run on a
// request body.
func ParseSpec(text string) (*tt.Function, string, error) {
	if strings.TrimSpace(text) == "" {
		return nil, "", errors.New("empty pla")
	}
	file, err := Parse(strings.NewReader(text))
	if err != nil {
		return nil, "", err
	}
	fn, err := file.ToFunction()
	if err != nil {
		return nil, "", err
	}
	return fn, HashFunction(fn), nil
}
