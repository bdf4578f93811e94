// Stage-boundary faults for the pipeline runner. A Harness implements
// the pipeline's Inject hook and fires a scripted fault — a panic, an
// artificial budget exhaustion, or a context cancellation — the first
// time execution reaches a chosen stage-boundary point ("assign/dense",
// "synth/resyn", "verify/netlist", ...).
//
// It exists to prove, benchmark by benchmark, that every edge of the
// pipeline's degradation ladder is actually exercised: the injection
// sweep in internal/pipeline's tests crosses every injection point with
// every fault kind and asserts that the pipeline either degrades to a
// verified implementation or returns a typed *pipeline.StageError —
// never a process panic, never a hang.
//
// Injection is deterministic like the rest of the package: a Harness
// fires at an exact point, exactly once (or on the k-th visit with
// Visit > 1). Plan enumerates the full cross product for sweep tests.

package chaos

import (
	"context"
	"fmt"
	"sync"

	"relsyn/internal/pipeline"
)

// Kind selects the fault to inject.
type Kind string

// Fault kinds.
const (
	// Panic raises a runtime panic at the injection point, simulating a
	// library bug (index out of range, invariant violation, ...).
	Panic Kind = "panic"
	// Budget returns an error wrapping pipeline.ErrBudget, simulating
	// resource exhaustion (SAT conflicts, AIG nodes).
	Budget Kind = "budget"
	// Cancel cancels the bound context, simulating a caller abandoning
	// the job; the hook then reports the context's error.
	Cancel Kind = "cancel"
)

// Kinds lists all fault kinds, for sweep tests.
func Kinds() []Kind { return []Kind{Panic, Budget, Cancel} }

// Points lists the pipeline's stage-boundary injection points, i.e. the
// rungs of the degradation ladder, in execution order.
func Points() []string {
	return []string{
		"assign/dense",
		"synth/resyn",
		"synth/sop",
		"verify/netlist",
	}
}

// Harness fires one scripted fault. The zero value is inert.
type Harness struct {
	// Point is the attempt name to fire at (see Points).
	Point string
	// Kind is the fault to inject.
	Kind Kind
	// Visit fires on the n-th arrival at Point (0 and 1 mean first).
	Visit int

	mu     sync.Mutex
	visits int
	fired  bool
	cancel context.CancelFunc
}

// New returns a harness that fires kind on the first arrival at point.
func New(point string, kind Kind) *Harness {
	return &Harness{Point: point, Kind: kind}
}

// Bind derives a cancellable context for the pipeline run and arms the
// Cancel fault with its CancelFunc. It must be called (and its context
// passed to pipeline.Run) for Cancel harnesses to have any effect.
func (h *Harness) Bind(ctx context.Context) context.Context {
	ctx, cancel := context.WithCancel(ctx)
	h.mu.Lock()
	h.cancel = cancel
	h.mu.Unlock()
	return ctx
}

// Fired reports whether the fault has been injected.
func (h *Harness) Fired() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.fired
}

// Hook implements pipeline.Hooks.Inject: pass it to pipeline.Run as
// pipeline.Hooks{Inject: h.Hook}.
func (h *Harness) Hook(point string) error {
	if h == nil || h.Point == "" {
		return nil
	}
	h.mu.Lock()
	if point != h.Point || h.fired {
		h.mu.Unlock()
		return nil
	}
	h.visits++
	want := h.Visit
	if want < 1 {
		want = 1
	}
	if h.visits < want {
		h.mu.Unlock()
		return nil
	}
	h.fired = true
	kind := h.Kind
	cancel := h.cancel
	h.mu.Unlock()

	switch kind {
	case Panic:
		panic(fmt.Sprintf("chaos: injected panic at %s", point))
	case Budget:
		return fmt.Errorf("chaos: injected exhaustion at %s: %w", point, pipeline.ErrBudget)
	case Cancel:
		if cancel == nil {
			return fmt.Errorf("chaos: Cancel harness at %s not bound to a context", point)
		}
		cancel()
		return context.Canceled
	default:
		return fmt.Errorf("chaos: unknown kind %q", kind)
	}
}

// Chain composes injection hooks left to right: each hook sees every
// point, and the first non-nil error (or panic) wins. Use it to arm a
// fault on a lower ladder rung behind a forcer that fails the rung above.
func Chain(hooks ...func(string) error) func(string) error {
	return func(point string) error {
		for _, h := range hooks {
			if h == nil {
				continue
			}
			if err := h(point); err != nil {
				return err
			}
		}
		return nil
	}
}

// Case is one cell of an injection sweep.
type Case struct {
	Point string
	Kind  Kind
}

func (c Case) String() string { return fmt.Sprintf("%s+%s", c.Point, c.Kind) }

// Plan enumerates the deterministic cross product of all injection points
// and fault kinds, in a fixed order.
func Plan() []Case {
	var out []Case
	for _, p := range Points() {
		for _, k := range Kinds() {
			out = append(out, Case{Point: p, Kind: k})
		}
	}
	return out
}
