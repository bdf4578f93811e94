package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"testing"

	"relsyn/internal/bitset"
	"relsyn/internal/blif"
	"relsyn/internal/network"
	"relsyn/internal/sat"
)

// netTestNetwork builds a small 3-PI network with internal don't-cares:
// sig3 = AND(pi0,pi1), sig4 = XOR(sig3,pi2), sig5 = OR(sig4,pi0);
// POs: sig5, sig3.
func netTestNetwork(t *testing.T) *network.Network {
	t.Helper()
	nw := &network.Network{NumPI: 3}
	and := bitset.New(4)
	and.Set(3)
	nw.Nodes = append(nw.Nodes, network.Node{Fanins: []int{0, 1}, Table: and})
	xor := bitset.New(4)
	xor.Set(1)
	xor.Set(2)
	nw.Nodes = append(nw.Nodes, network.Node{Fanins: []int{3, 2}, Table: xor})
	or := bitset.New(4)
	or.Set(1)
	or.Set(2)
	or.Set(3)
	nw.Nodes = append(nw.Nodes, network.Node{Fanins: []int{4, 0}, Table: or})
	nw.AddPO(5)
	nw.AddPO(3)
	return nw
}

// Parallelism is operational, so it collapses onto one cache entry, and
// no DC-extraction knob reaches the key: a network job's engine is
// picked from the network alone.
func TestJobOptionsDCModeKeyImpurity(t *testing.T) {
	same := []JobOptions{
		{Method: "lcf", Threshold: 0.55},
		{Method: "LCF", Threshold: 0.55},
		{Method: "lcf", Threshold: 0.55, Parallelism: 8},
	}
	for i := 1; i < len(same); i++ {
		if same[i].Key() != same[0].Key() {
			t.Fatalf("equivalent options %d fragmented the key", i)
		}
	}
}

func TestRunNetworkJobAutoExhaustive(t *testing.T) {
	nw := netTestNetwork(t)
	want := nw.POFunction()
	res, err := RunNetworkJob(context.Background(), nw, JobOptions{Method: "lcf", Threshold: 0.55})
	if err != nil {
		t.Fatal(err)
	}
	if res.DCMode != JobDCExhaustive {
		t.Fatalf("auto on a 3-PI network chose %q, want exhaustive", res.DCMode)
	}
	if res.Network == nil || !res.Equivalent {
		t.Fatalf("result incomplete: %+v", res)
	}
	if !res.Network.POFunction().Equal(want) {
		t.Fatal("exhaustive reassignment changed PO functions")
	}
	if res.LiteralsBefore <= 0 || res.LiteralsAfter <= 0 {
		t.Fatalf("literal counts not populated: %+v", res)
	}
	// The input network must not have been mutated (rungs run on clones).
	if !nw.POFunction().Equal(want) {
		t.Fatal("input network was mutated")
	}
}

// bigNetwork parses the shared 120-input network, past the dense
// ceiling, so network jobs on it run the windowed-SAT engine.
func bigNetwork(t *testing.T) *network.Network {
	t.Helper()
	src, err := os.ReadFile("../network/testdata/big120.blif")
	if err != nil {
		t.Fatal(err)
	}
	nw, err := blif.Parse(bytes.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestRunNetworkJobWindowed(t *testing.T) {
	nw := bigNetwork(t)
	res, err := RunNetworkJob(context.Background(), nw, JobOptions{Method: "lcf", Threshold: 0.55})
	if err != nil {
		t.Fatal(err)
	}
	if res.DCMode != JobDCWindowedSAT || res.Degraded {
		t.Fatalf("a %d-PI network ran %q (degraded %v), want windowed-sat", nw.NumPI, res.DCMode, res.Degraded)
	}
	// 2^120 minterms rule out simulation: the SAT CEC must prove the
	// primary outputs unchanged.
	if !res.Equivalent || res.CECMethod != "sat" {
		t.Fatalf("windowed run not CEC-verified: %+v", res)
	}
	if res.Windows == 0 || res.SATCalls == 0 || res.Assigned == 0 {
		t.Fatalf("windowed effort not reported: %+v", res)
	}
}

// A starved conflict budget on a network above the dense ceiling is a
// budget failure of the windowed rung: there is no rung to degrade to.
func TestRunNetworkJobWindowedBudget(t *testing.T) {
	res, err := RunNetworkJob(context.Background(), bigNetwork(t),
		JobOptions{Method: "lcf", Threshold: 0.55, MaxConflicts: 1})
	var se *StageError
	if !errors.As(err, &se) || se.Attempt != "extract/windowed-sat" ||
		se.Reason != ReasonBudget || !errors.Is(err, sat.ErrBudget) {
		t.Fatalf("want a windowed-sat budget StageError, got %v", err)
	}
	if res == nil || res.Network != nil || len(res.Fallbacks) != 0 {
		t.Fatalf("partial result wrong: %+v", res)
	}
}

// An exhaustive attempt that panics or trips a budget degrades to the
// windowed-SAT rung, which still returns a PO-equivalent network; under
// Strict the failure comes back as a typed StageError instead.
func TestRunNetworkJobExhaustiveDegrades(t *testing.T) {
	for _, tc := range []struct {
		reason Reason
		inject func() error
	}{
		{ReasonPanic, func() error { panic("injected") }},
		{ReasonBudget, func() error { return fmt.Errorf("injected: %w", ErrBudget) }},
	} {
		t.Run(string(tc.reason), func(t *testing.T) {
			nw := netTestNetwork(t)
			want := nw.POFunction()
			h := Hooks{Inject: func(point string) error {
				if point == "extract/exhaustive" {
					return tc.inject()
				}
				return nil
			}}
			jo := JobOptions{Method: "lcf", Threshold: 0.55}
			res, err := runNetworkJob(context.Background(), nw, jo, h)
			if err != nil {
				t.Fatalf("ladder did not absorb the failure: %v", err)
			}
			want1 := JobFallback{Stage: "extract", From: "extract/exhaustive",
				To: "extract/windowed-sat", Reason: string(tc.reason)}
			if !res.Degraded || len(res.Fallbacks) != 1 || res.Fallbacks[0] != want1 {
				t.Fatalf("fallbacks %+v, want [%+v]", res.Fallbacks, want1)
			}
			if res.DCMode != JobDCWindowedSAT || !res.Equivalent ||
				!res.Network.POFunction().Equal(want) {
				t.Fatalf("fallback result wrong: %+v", res)
			}

			jo.Strict = true
			res, err = runNetworkJob(context.Background(), nw, jo, h)
			var se *StageError
			if !errors.As(err, &se) || se.Attempt != "extract/exhaustive" || se.Reason != tc.reason {
				t.Fatalf("strict: want a %s StageError at extract/exhaustive, got %v", tc.reason, err)
			}
			if res == nil || res.Network != nil || len(res.Fallbacks) != 0 {
				t.Fatalf("strict: partial result wrong: %+v", res)
			}
		})
	}
}

func TestRunNetworkJobRejectsNonLCF(t *testing.T) {
	nw := netTestNetwork(t)
	for _, m := range []string{"", "none", "rank", "complete"} {
		if _, err := RunNetworkJob(context.Background(), nw, JobOptions{Method: m, Fraction: 0.5}); err == nil {
			t.Fatalf("method %q accepted for a network job", m)
		}
	}
	if _, err := RunNetworkJob(context.Background(), nil, JobOptions{Method: "lcf", Threshold: 0.5}); err == nil {
		t.Fatal("nil network accepted")
	}
}
