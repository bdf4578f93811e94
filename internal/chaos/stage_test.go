package chaos

import (
	"context"
	"errors"
	"strings"
	"testing"

	"relsyn/internal/pipeline"
)

func TestHarnessFiresOnceAtPoint(t *testing.T) {
	h := New("synth/sop", Budget)
	if err := h.Hook("assign/dense"); err != nil {
		t.Fatalf("fired at wrong point: %v", err)
	}
	if h.Fired() {
		t.Fatal("marked fired before reaching its point")
	}
	err := h.Hook("synth/sop")
	if err == nil {
		t.Fatal("did not fire at its point")
	}
	if !errors.Is(err, pipeline.ErrBudget) {
		t.Fatalf("budget fault does not wrap pipeline.ErrBudget: %v", err)
	}
	if !h.Fired() {
		t.Fatal("Fired() false after firing")
	}
	// One-shot: the second arrival is a no-op.
	if err := h.Hook("synth/sop"); err != nil {
		t.Fatalf("fired twice: %v", err)
	}
}

func TestHarnessVisitCount(t *testing.T) {
	h := &Harness{Point: "verify/netlist", Kind: Budget, Visit: 2}
	if err := h.Hook("verify/netlist"); err != nil {
		t.Fatalf("fired on first visit with Visit=2: %v", err)
	}
	if err := h.Hook("verify/netlist"); err == nil {
		t.Fatal("did not fire on second visit")
	}
}

func TestPanicKindPanics(t *testing.T) {
	h := New("assign/dense", Panic)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Panic harness did not panic")
		}
		if !strings.Contains(r.(string), "assign/dense") {
			t.Fatalf("panic value does not name the point: %v", r)
		}
	}()
	h.Hook("assign/dense")
}

func TestCancelRequiresBind(t *testing.T) {
	unbound := New("synth/sop", Cancel)
	if err := unbound.Hook("synth/sop"); err == nil ||
		!strings.Contains(err.Error(), "not bound") {
		t.Fatalf("unbound Cancel harness error = %v", err)
	}

	h := New("synth/sop", Cancel)
	ctx := h.Bind(context.Background())
	err := h.Hook("synth/sop")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel fault returned %v", err)
	}
	if ctx.Err() == nil {
		t.Fatal("bound context not cancelled")
	}
}

func TestZeroHarnessAndNilAreInert(t *testing.T) {
	var zero Harness
	for _, p := range Points() {
		if err := zero.Hook(p); err != nil {
			t.Fatalf("zero harness fired at %s: %v", p, err)
		}
	}
	var nilH *Harness
	if err := nilH.Hook("synth/sop"); err != nil {
		t.Fatalf("nil harness fired: %v", err)
	}
}

func TestChainFirstErrorWins(t *testing.T) {
	a := New("synth/resyn", Budget)
	b := New("synth/sop", Budget)
	hook := Chain(a.Hook, nil, b.Hook)
	if err := hook("synth/resyn"); !errors.Is(err, pipeline.ErrBudget) {
		t.Fatalf("chain missed first harness: %v", err)
	}
	if err := hook("synth/sop"); !errors.Is(err, pipeline.ErrBudget) {
		t.Fatalf("chain missed second harness: %v", err)
	}
	if !a.Fired() || !b.Fired() {
		t.Fatal("chained harnesses not both fired")
	}
}

func TestPlanCoversCrossProduct(t *testing.T) {
	plan := Plan()
	if len(plan) != len(Points())*len(Kinds()) {
		t.Fatalf("plan has %d cases, want %d", len(plan), len(Points())*len(Kinds()))
	}
	seen := map[string]bool{}
	for _, c := range plan {
		if seen[c.String()] {
			t.Fatalf("duplicate case %s", c)
		}
		seen[c.String()] = true
	}
}
