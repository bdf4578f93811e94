package network_test

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"relsyn/internal/blif"
	"relsyn/internal/network"
)

// The acceptance target of the windowed engine: a network far past the
// 2^n exhaustive ceiling (120 primary inputs) completes a full windowed
// LC^f reassignment under the default window and conflict budget, and
// the built-in SAT CEC proves the primary outputs unchanged.
func TestReassignLCFWindowedBigNetwork(t *testing.T) {
	src, err := os.ReadFile("testdata/big120.blif")
	if err != nil {
		t.Fatal(err)
	}
	nw, err := blif.Parse(bytes.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if nw.NumPI < 100 {
		t.Fatalf("acceptance circuit has %d PIs, need >= 100", nw.NumPI)
	}
	nodes := nw.NumNodes()
	rep, err := nw.ReassignLCFWindowed(0.55, network.SatDCOptions{})
	if err != nil {
		t.Fatalf("windowed reassignment: %v", err)
	}
	if !rep.Equivalent {
		t.Fatalf("CEC rejected the reassigned network: %+v", rep)
	}
	// With 120 PIs the exhaustive CEC fallback is unreachable: the verdict
	// must come from the SAT miter, within budget.
	if rep.CECMethod != "sat" {
		t.Fatalf("CEC method %q, want sat: %+v", rep.CECMethod, rep)
	}
	if rep.BudgetExhausted != 0 {
		t.Fatalf("%d nodes exhausted the default conflict budget: %+v", rep.BudgetExhausted, rep)
	}
	if rep.Nodes != nodes || rep.Windows != nodes || rep.SATCalls == 0 {
		t.Fatalf("accounting %+v for %d nodes", rep, nodes)
	}
	// The overlapping mid-layer guarantees correlated window inputs, so
	// the engine must find real don't-cares to bind, not just terminate.
	if rep.Assigned == 0 {
		t.Fatalf("no don't-cares bound on the acceptance circuit: %+v", rep)
	}
	// The emitted network still round-trips through the BLIF writer.
	var out strings.Builder
	if err := blif.WriteNetwork(&out, nw, "big"); err != nil {
		t.Fatal(err)
	}
	back, err := blif.Parse(strings.NewReader(out.String()))
	if err != nil {
		t.Fatalf("reassigned network not re-parseable: %v", err)
	}
	if back.NumPI != nw.NumPI || len(back.POs) != len(nw.POs) {
		t.Fatalf("round-trip interface %dx%d, want %dx%d",
			back.NumPI, len(back.POs), nw.NumPI, len(nw.POs))
	}
}
