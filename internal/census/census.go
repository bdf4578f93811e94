// Package census is the one-pass fused analysis engine's sharing layer:
// it computes the per-output neighbor censuses of a function
// (bitset.Census) once, caches them content-addressed, and serves them
// to every spec-side analysis — ranking weights, LC^f, the exact
// reliability bounds, border counts and C^f.
//
// Cache-key contract: a census depends only on the specification's
// truth tables, so the cache is keyed on the spec content hash ALONE
// (pla.HashFunction upstream). Execution knobs — parallelism,
// assignment fractions/thresholds — must never
// fragment it; the key-purity tests in this package and in
// internal/pipeline pin that. Each process keeps its own engine and a
// census never leaves it: in a sharded deployment ring placement on
// the same bare spec hash already sends every option-variant of one
// spec to one owner, whose engine serves them all.
//
// Invalidation story: there is none, by construction. The key is a
// content hash of the truth tables, so a "stale" census is
// unreachable — a changed spec hashes elsewhere. Entries only ever
// leave through LRU pressure (entry count or byte budget; censuses are
// two orders of magnitude bigger than job results, so the cache is
// byte-accounted via lru.NewSized).
package census

import (
	"context"
	"fmt"

	"relsyn/internal/bitset"
	"relsyn/internal/lru"
	"relsyn/internal/obs"
	"relsyn/internal/par"
	"relsyn/internal/tt"
)

// FunctionCensus bundles the fused neighbor censuses of every output
// of one function. Immutable after Compute; safe for concurrent
// readers and for sharing through the cache.
type FunctionCensus struct {
	NumIn int
	Outs  []*bitset.Census
}

// Compute builds the census of every output, parallel across outputs
// under the caller's parallelism limit (0 = GOMAXPROCS). Library
// panics out of the bitset layer surface as *par.PanicError.
func Compute(ctx context.Context, f *tt.Function, parallelism int) (*FunctionCensus, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	fc := &FunctionCensus{NumIn: f.NumIn, Outs: make([]*bitset.Census, len(f.Outs))}
	err := par.Do(ctx, parallelism, len(f.Outs), func(o int) error {
		fc.Outs[o] = Output(f, o)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return fc, nil
}

// Output builds the census of output o alone, for a caller that was
// handed no precomputed one.
func Output(f *tt.Function, o int) *bitset.Census {
	return bitset.NewCensus(f.Outs[o].On, f.Outs[o].DC)
}

// Check reports why cs cannot be f's per-output censuses: a slice of
// the wrong length, a missing entry, or a census of another minterm
// space. The analysis means call it before reading cs.
func Check(f *tt.Function, cs []*bitset.Census) error {
	if len(cs) != f.NumOut() {
		return fmt.Errorf("census: %d censuses for %d outputs", len(cs), f.NumOut())
	}
	for o, c := range cs {
		if c == nil {
			return fmt.Errorf("census: output %d has no census", o)
		}
		if c.Len() != f.Size() {
			return fmt.Errorf("census: output %d census spans %d minterms, want %d", o, c.Len(), f.Size())
		}
	}
	return nil
}

// Bytes reports the resident size charged by the byte-accounted cache.
func (fc *FunctionCensus) Bytes() int {
	total := 0
	for _, c := range fc.Outs {
		total += c.Bytes()
	}
	return total
}

// Matches reports whether the census plausibly belongs to f: same
// input count, same output count, and each output's snapshot on/dc
// sets equal f's. It is the guard consumers use before trusting a
// cached census for a given function.
func (fc *FunctionCensus) Matches(f *tt.Function) bool {
	if fc.NumIn != f.NumIn || len(fc.Outs) != len(f.Outs) {
		return false
	}
	for o, c := range fc.Outs {
		if c == nil || !c.On().Equal(f.Outs[o].On) || !c.DC().Equal(f.Outs[o].DC) {
			return false
		}
	}
	return true
}

// Engine is the process-wide census service: a content-addressed,
// byte-accounted LRU in front of Compute. The zero Engine is not
// usable; construct with NewEngine.
type Engine struct {
	cache *lru.Cache[string, *FunctionCensus]

	hits, misses obs.Counter
}

// DefaultMaxBytes bounds the default engine's resident censuses:
// 64 MiB holds ~490 single-output n=16 censuses (~134 KiB each) and
// stays negligible next to the worker pool's own footprint.
const DefaultMaxBytes = 64 << 20

// DefaultMaxEntries bounds the default engine's entry count; the byte
// budget is the binding limit for any realistically sized spec.
const DefaultMaxEntries = 4096

// Default is the process-wide engine used by pipeline jobs.
// Reconfigure (SetDefault) before serving traffic.
var Default = NewEngine(DefaultMaxEntries, DefaultMaxBytes)

// SetDefault replaces the process-wide engine; nil disables census
// caching entirely (jobs then compute their census per job).
func SetDefault(e *Engine) { Default = e }

// NewEngine returns an engine whose cache holds at most maxEntries
// censuses and maxBytes of resident census planes (maxBytes <= 0
// disables byte accounting; maxEntries <= 0 disables caching — every
// For recomputes).
func NewEngine(maxEntries int, maxBytes int64) *Engine {
	return &Engine{
		cache: lru.NewSized[string, *FunctionCensus](maxEntries, maxBytes,
			func(fc *FunctionCensus) int { return fc.Bytes() }),
	}
}

// Instrument exports the engine's series on reg:
// relsyn_census_{hits,misses}_total and the relsyn_census_bytes gauge.
// Registered eagerly so scrapes see zeros before the first job.
func (e *Engine) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.SetHelp("relsyn_census_hits_total", "Fused-census lookups served from the content-addressed cache.")
	reg.SetHelp("relsyn_census_misses_total", "Fused-census lookups that recomputed the census.")
	reg.SetHelp("relsyn_census_bytes", "Resident bytes of cached fused censuses.")
	reg.RegisterCounter("relsyn_census_hits_total", &e.hits)
	reg.RegisterCounter("relsyn_census_misses_total", &e.misses)
	reg.GaugeFunc("relsyn_census_bytes", func() float64 { return float64(e.cache.Bytes()) })
}

// Stats snapshots the engine counters and cache occupancy.
type Stats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Bytes  int64 `json:"bytes"`
	Len    int   `json:"len"`
}

func (e *Engine) Stats() Stats {
	return Stats{
		Hits:   e.hits.Value(),
		Misses: e.misses.Value(),
		Bytes:  e.cache.Bytes(),
		Len:    e.cache.Len(),
	}
}

// For returns the census for the spec identified by hash, serving it
// from the cache when present and computing (and caching) it
// otherwise. hash must be the spec content hash alone — callers must
// not mix execution options into it (key purity). A cached census that
// fails the Matches guard (a hash collision) is discarded and
// recomputed.
func (e *Engine) For(ctx context.Context, hash string, f *tt.Function, parallelism int) (*FunctionCensus, error) {
	if hash == "" {
		return nil, fmt.Errorf("census: empty spec hash")
	}
	if fc, ok := e.cache.Get(hash); ok {
		if fc.Matches(f) {
			e.hits.Inc()
			return fc, nil
		}
		e.cache.Remove(hash)
	}
	e.misses.Inc()
	fc, err := Compute(ctx, f, parallelism)
	if err != nil {
		return nil, err
	}
	e.cache.Add(hash, fc)
	return fc, nil
}
