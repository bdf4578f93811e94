// Binary wire format for shipping censuses between shards (the peer
// census-fill path, GET /v1/census/{hash}).
//
// Layout (little-endian):
//
//	magic   "RSC1"
//	numIn   uint32
//	numOuts uint32
//	per output:
//	  on words, dc words           (word count derived from numIn)
//	  onCnt/offCnt/dcCnt planes    (plane count derived from numIn)
//
// Everything derivable is derived, not shipped: word counts, plane
// counts and the off-set (rederived as ~(on|dc) on receive) — the
// format cannot express a census whose shape disagrees with its
// header. Counter contents are shape-checked but trusted; receivers
// additionally gate primes behind FunctionCensus.Matches against the
// local spec, so a corrupt or mismatched payload is discarded at use.
package census

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"relsyn/internal/bitset"
	"relsyn/internal/tt"
)

var wireMagic = [4]byte{'R', 'S', 'C', '1'}

func censusPlanes(numIn int) int {
	k := numIn
	if k < 1 {
		k = 1
	}
	return bits.Len(uint(k))
}

// MarshalBinary serializes the census for the peer endpoint.
func (fc *FunctionCensus) MarshalBinary() ([]byte, error) {
	if fc.NumIn < 0 || fc.NumIn > tt.MaxInputs {
		return nil, fmt.Errorf("census: %d inputs outside wire range [0,%d]", fc.NumIn, tt.MaxInputs)
	}
	n := 1 << uint(fc.NumIn)
	words := (n + 63) / 64
	planes := censusPlanes(fc.NumIn)
	size := 12 + len(fc.Outs)*(words*8*(2+3*planes))
	buf := make([]byte, 0, size)
	buf = append(buf, wireMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(fc.NumIn))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(fc.Outs)))
	appendSet := func(s *bitset.Set) error {
		if s.Len() != n {
			return fmt.Errorf("census: output set has %d bits, want %d", s.Len(), n)
		}
		for _, w := range s.Words() {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
		return nil
	}
	for o, c := range fc.Outs {
		if c == nil {
			return nil, fmt.Errorf("census: output %d has no census", o)
		}
		if err := appendSet(c.On()); err != nil {
			return nil, err
		}
		if err := appendSet(c.DC()); err != nil {
			return nil, err
		}
		for _, cnt := range []*bitset.Counter{c.OnCounter(), c.OffCounter(), c.DCCounter()} {
			if cnt.NumPlanes() != planes {
				return nil, fmt.Errorf("census: output %d counter has %d planes, want %d", o, cnt.NumPlanes(), planes)
			}
			for p := 0; p < planes; p++ {
				if err := appendSet(cnt.Plane(p)); err != nil {
					return nil, err
				}
			}
		}
	}
	return buf, nil
}

// UnmarshalBinary parses a wire census, validating the header and that
// the payload length matches exactly what the header implies.
func UnmarshalBinary(data []byte) (*FunctionCensus, error) {
	if len(data) < 12 || [4]byte(data[:4]) != wireMagic {
		return nil, fmt.Errorf("census: bad wire header")
	}
	numIn := int(binary.LittleEndian.Uint32(data[4:8]))
	numOuts := int(binary.LittleEndian.Uint32(data[8:12]))
	// No admitted spec is wider than tt.MaxInputs, so a wider header is
	// malformed peer input; refusing it also keeps the header from
	// asking for huge allocations.
	if numIn > tt.MaxInputs {
		return nil, fmt.Errorf("census: %d inputs outside wire range [0,%d]", numIn, tt.MaxInputs)
	}
	n := 1 << uint(numIn)
	words := (n + 63) / 64
	planes := censusPlanes(numIn)
	perOut := words * 8 * (2 + 3*planes)
	if numOuts < 1 || len(data)-12 != numOuts*perOut {
		return nil, fmt.Errorf("census: payload %d bytes, want %d for %d outputs", len(data)-12, numOuts*perOut, numOuts)
	}
	pos := 12
	readSet := func() *bitset.Set {
		s := bitset.New(n)
		ws := s.Words()
		for i := range ws {
			ws[i] = binary.LittleEndian.Uint64(data[pos : pos+8])
			pos += 8
		}
		s.Trim() // never trust padding bits off the wire
		return s
	}
	fc := &FunctionCensus{NumIn: numIn, Outs: make([]*bitset.Census, numOuts)}
	for o := range fc.Outs {
		on := readSet()
		dc := readSet()
		if on.IntersectsWith(dc) {
			return nil, fmt.Errorf("census: output %d on/dc sets intersect", o)
		}
		var cnts [3]*bitset.Counter
		for i := range cnts {
			ps := make([]*bitset.Set, planes)
			for p := range ps {
				ps[p] = readSet()
			}
			cnts[i] = bitset.NewCounterFromPlanes(n, ps)
		}
		fc.Outs[o] = bitset.NewCensusFromParts(on, dc, cnts[0], cnts[1], cnts[2])
	}
	return fc, nil
}
