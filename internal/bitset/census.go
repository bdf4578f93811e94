// One-pass fused neighbor census.
//
// Every spec-side paper metric — ranking weights, LC^f numerators, the
// exact reliability bounds, border counts, C^f — is a function of the
// same three per-minterm quantities: how many of a minterm's k 1-Hamming
// neighbors lie in the on-set, the off-set, and the DC set. A Census
// computes all three bit-sliced counters in a single pass over the input
// bits and every consumer reduces to plane lookups and masked plane sums.
//
// The reductions (all exact integer identities, so the results are
// bit-identical to the scalar oracle in internal/metatest):
//
//	base pairs     = 2·Σ_{m∈on} offCnt[m]
//	min/max pairs  = Σ_{m∈dc} min/max(onCnt[m], offCnt[m])
//	border B1      = Σ_{m∈on} (k − onCnt[m])      (B0, BDC analogous)
//	C^f numerator  = Σ_{m∈on} onCnt[m] + Σ_{m∈dc} dcCnt[m] + Σ_{m∈off} offCnt[m]
//
// The masked plane sums run cache-blocked (see popcount.go): the mask
// block is walked once per counter plane while it is still resident,
// instead of streaming the full mask per plane.
//
// A Census snapshots its inputs: the on/dc sets are cloned at build
// time, so later in-place DC assignment on the source function cannot
// corrupt a cached census. Consumers therefore always see spec-time
// counts, which is exactly the contract the assignment oracles already
// relied on (they too snapshot their censuses before mutating).
package bitset

import "math/bits"

// Census is the fused neighbor census of one output: for every minterm
// m of a 2^k space, how many of its k 1-Hamming neighbors are in the
// on-set, off-set and DC set, stored as bit-sliced Counters. It is
// immutable after construction and safe for concurrent readers.
type Census struct {
	n int // minterm-space size (2^k)
	k int // input count

	on, dc, off *Set // cloned phase sets (off derived: ~(on|dc))

	onCnt, offCnt, dcCnt *Counter

	// Derived read-only arrays, precomputed at build time so every
	// cache hit serves them for free: the decoded on/off neighbor
	// counts (the assignment oracles and DC pair bounds read every DC
	// minterm, so per-query plane gathers were the hot path) and the
	// two-step same-phase fold (the LC^f numerators). All three are
	// charged to Bytes().
	onVals, offVals []uint8
	foldVals        []uint16
}

// NewCensus builds the census of an output from its on-set and DC set
// in one fused pass over the k input bits. The capacity must be a
// power of two (it is a minterm space); on and dc must not intersect —
// that invariant is owned by tt.Function.Validate and is not re-checked
// here.
func NewCensus(on, dc *Set) *Census {
	on.checkShift("NewCensus", 0)
	on.mustMatch("bitset.NewCensus", dc)
	n := on.n
	k := bits.Len(uint(n - 1))
	if n == 1 {
		k = 0
	}
	off := on.Union(dc)
	for i := range off.words {
		off.words[i] = ^off.words[i]
	}
	off.trim()
	max := k
	if max < 1 {
		max = 1
	}
	c := &Census{
		n:      n,
		k:      k,
		on:     on.Clone(),
		dc:     dc.Clone(),
		off:    off,
		onCnt:  NewCounter(n, max),
		offCnt: NewCounter(n, max),
		dcCnt:  NewCounter(n, max),
	}
	for b := 0; b < k; b++ {
		c.onCnt.AddShifted(c.on, b)
		c.dcCnt.AddShifted(c.dc, b)
		c.offCnt.AddShifted(off, b)
	}
	c.buildDerived()
	return c
}

// buildDerived materializes the precomputed reduction arrays from the
// counters: decoded on/off counts and the LC^f fold. Deterministic
// from the counters, so the wire path rebuilds rather than ships them.
func (c *Census) buildDerived() {
	c.onVals = c.onCnt.Values8()
	c.offVals = c.offCnt.Values8()
	sp := c.SamePhaseCounter()
	maxv := c.k * c.k
	if maxv < 1 {
		maxv = 1
	}
	fold := NewCounter(c.n, maxv)
	for b := 0; b < c.k; b++ {
		for p := range sp.planes {
			fold.AddShiftedAtLevel(sp.planes[p], b, p)
		}
	}
	c.foldVals = fold.Values16()
}

// Len returns the minterm-space size (2^K).
func (c *Census) Len() int { return c.n }

// K returns the input count.
func (c *Census) K() int { return c.k }

// On, DC and Off return the census's snapshot of the phase sets. The
// returned sets are live views of the census's internal state and must
// not be mutated.
func (c *Census) On() *Set  { return c.on }
func (c *Census) DC() *Set  { return c.dc }
func (c *Census) Off() *Set { return c.off }

// OnAt, OffAt and DCAt return the per-minterm neighbor counts. On and
// off reads come from the precomputed arrays; DC counts are queried
// rarely enough that they stay plane-gathered.
func (c *Census) OnAt(m int) int  { return int(c.onVals[m]) }
func (c *Census) OffAt(m int) int { return int(c.offVals[m]) }
func (c *Census) DCAt(m int) int  { return c.dcCnt.Get(m) }

// OnValues and OffValues return the decoded per-minterm on/off
// neighbor counts — shared read-only arrays; callers must not mutate.
func (c *Census) OnValues() []uint8  { return c.onVals }
func (c *Census) OffValues() []uint8 { return c.offVals }

// SamePhaseFold returns the precomputed two-step same-phase fold
// L[m] = Σ_b SP[m ^ 2^b], where SP is the SamePhaseCounter — the
// integer LC^f numerators, bounded by k². Shared read-only array.
func (c *Census) SamePhaseFold() []uint16 { return c.foldVals }

// BasePairs counts the ordered (minterm, bit) events where a care
// minterm and its neighbor hold opposite definite phases — the
// always-propagating pair count at the bottom of the exact reliability
// bounds. Each unordered on/off adjacency propagates in both
// directions, hence the factor two.
func (c *Census) BasePairs() int {
	return 2 * maskedPlaneSum(c.offCnt, c.on)
}

// DCPairBounds returns Σ_{m∈dc} min(onCnt, offCnt) and
// Σ_{m∈dc} max(onCnt, offCnt): the best- and worst-case propagating
// pairs contributed by the DC minterms over every completion.
func (c *Census) DCPairBounds() (minPairs, maxPairs int) {
	// Array reads per DC minterm from the precomputed decodes — the
	// per-minterm Get pair was the dominant cost of this reduction.
	on, off := c.onVals, c.offVals
	c.dc.ForEach(func(m int) {
		a, b := int(on[m]), int(off[m])
		if a < b {
			minPairs += a
			maxPairs += b
		} else {
			minPairs += b
			maxPairs += a
		}
	})
	return minPairs, maxPairs
}

// Borders returns the ordered boundary sizes of the three phase
// regions: b0 counts (m, bit) events where m is in the off-set and its
// neighbor is not, b1 the same for the on-set, bdc for the DC set. A
// minterm's out-of-region neighbor count is k minus its same-region
// census, so each border reduces to one masked plane sum.
func (c *Census) Borders() (b0, b1, bdc int) {
	b0 = c.k*c.off.Count() - maskedPlaneSum(c.offCnt, c.off)
	b1 = c.k*c.on.Count() - maskedPlaneSum(c.onCnt, c.on)
	bdc = c.k*c.dc.Count() - maskedPlaneSum(c.dcCnt, c.dc)
	return b0, b1, bdc
}

// SamePhasePairs counts the ordered (minterm, bit) events where the
// minterm and its neighbor are in the same phase region — the C^f
// numerator.
func (c *Census) SamePhasePairs() int {
	return maskedPlaneSum(c.onCnt, c.on) +
		maskedPlaneSum(c.dcCnt, c.dc) +
		maskedPlaneSum(c.offCnt, c.off)
}

// SamePhaseCounter assembles the per-minterm same-phase census (the
// LC^f fold input): position m holds its phase region's neighbor count.
// Built by masking each counter plane with its phase set — no neighbor
// pass — since the three regions partition the space. The returned
// counter is freshly allocated and owned by the caller.
func (c *Census) SamePhaseCounter() *Counter {
	sp := &Counter{n: c.n, planes: make([]*Set, len(c.onCnt.planes))}
	for p := range sp.planes {
		s := New(c.n)
		onW, dcW, offW := c.onCnt.planes[p].words, c.dcCnt.planes[p].words, c.offCnt.planes[p].words
		for i := range s.words {
			s.words[i] = onW[i]&c.on.words[i] | dcW[i]&c.dc.words[i] | offW[i]&c.off.words[i]
		}
		sp.planes[p] = s
	}
	return sp
}

// Bytes reports the census's approximate resident size: the backing
// words of the three phase sets and the three counters' planes, plus
// the precomputed decode and fold arrays. It is the size function the
// census cache's byte accounting charges.
func (c *Census) Bytes() int {
	words := len(c.on.words) + len(c.dc.words) + len(c.off.words)
	for _, cnt := range []*Counter{c.onCnt, c.offCnt, c.dcCnt} {
		for _, p := range cnt.planes {
			words += len(p.words)
		}
	}
	return words*8 + len(c.onVals) + len(c.offVals) + 2*len(c.foldVals)
}
