package pipeline

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"relsyn/internal/bitset"
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

// The new semantic knobs must fragment the cache key — dc_mode and the
// window depths change which don't-cares a job can see, so two jobs
// differing in them must never share a cache entry (key impurity) —
// while parallelism must still collapse onto one entry (key purity).
func TestJobOptionsDCModeKeyImpurity(t *testing.T) {
	base := JobOptions{Method: "lcf", Threshold: 0.55}
	fragmenting := []JobOptions{
		{Method: "lcf", Threshold: 0.55, DCMode: "exhaustive"},
		{Method: "lcf", Threshold: 0.55, DCMode: "windowed-sat"},
		{Method: "lcf", Threshold: 0.55, DCMode: "windowed-sat", WindowTFI: 2},
		{Method: "lcf", Threshold: 0.55, DCMode: "windowed-sat", WindowTFI: 3},
		{Method: "lcf", Threshold: 0.55, DCMode: "windowed-sat", WindowTFO: 1},
		{Method: "lcf", Threshold: 0.55, DCMode: "windowed-sat", WindowTFI: -1, WindowTFO: -1},
		{Method: "lcf", Threshold: 0.55, WindowTFI: 4},
	}
	seen := map[string]int{base.Key(): -1}
	for i, o := range fragmenting {
		k := o.Key()
		if j, ok := seen[k]; ok {
			t.Fatalf("options %d and %d collided (dc knobs must fragment the key)", i, j)
		}
		seen[k] = i
	}
	// Purity survives alongside the new fields: operational knobs still
	// collapse, and equivalent dc spellings collapse too.
	same := []JobOptions{
		{Method: "lcf", Threshold: 0.55, DCMode: "windowed-sat", WindowTFI: 2},
		{Method: "LCF", Threshold: 0.55, DCMode: " Windowed-SAT ", WindowTFI: 2},
		{Method: "lcf", Threshold: 0.55, DCMode: "windowed-sat", WindowTFI: 2, Parallelism: 8},
	}
	for i := 1; i < len(same); i++ {
		if same[i].Key() != same[0].Key() {
			t.Fatalf("equivalent options %d fragmented the key", i)
		}
	}
	// All negative depths are one spelling ("full depth").
	a := JobOptions{Method: "lcf", Threshold: 0.55, DCMode: "windowed-sat", WindowTFI: -1, WindowTFO: -2}
	b := JobOptions{Method: "lcf", Threshold: 0.55, DCMode: "windowed-sat", WindowTFI: -7, WindowTFO: -1}
	if a.Key() != b.Key() {
		t.Fatal("negative window depths did not collapse to one key")
	}
	// Window depths are inert for the exhaustive engine.
	c := JobOptions{Method: "lcf", Threshold: 0.55, DCMode: "exhaustive", WindowTFI: 3, WindowTFO: 2}
	d := JobOptions{Method: "lcf", Threshold: 0.55, DCMode: "exhaustive"}
	if c.Key() != d.Key() {
		t.Fatal("window depths fragmented the key under dc_mode=exhaustive")
	}
}

func TestJobOptionsDCModeValidate(t *testing.T) {
	if err := (JobOptions{DCMode: "bogus"}).Normalize().Validate(); err == nil {
		t.Fatal("invalid dc_mode accepted")
	}
	for _, m := range []string{"", "auto", "exhaustive", "Windowed-SAT"} {
		if err := (JobOptions{DCMode: m}).Normalize().Validate(); err != nil {
			t.Fatalf("dc_mode %q rejected: %v", m, err)
		}
	}
	n := JobOptions{DCMode: "auto"}.Normalize()
	if n.DCMode != "" {
		t.Fatalf("auto did not normalize to empty, got %q", n.DCMode)
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

func TestRunNetworkJobWindowed(t *testing.T) {
	nw := netTestNetwork(t)
	want := nw.POFunction()
	res, err := RunNetworkJob(context.Background(), nw, JobOptions{
		Method: "lcf", Threshold: 0.55, DCMode: "windowed-sat", WindowTFI: 2, WindowTFO: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DCMode != JobDCWindowedSAT {
		t.Fatalf("dc_mode=%q, want windowed-sat", res.DCMode)
	}
	if !res.Equivalent || res.CECMethod == "" {
		t.Fatalf("windowed run not CEC-verified: %+v", res)
	}
	if res.Windows == 0 || res.SATCalls == 0 {
		t.Fatalf("windowed effort not reported: %+v", res)
	}
	if !res.Network.POFunction().Equal(want) {
		t.Fatal("windowed reassignment changed PO functions")
	}
}

// Regression for the satdc budget fix: a windowed extraction that runs
// out of SAT conflicts surfaces a typed sat.ErrBudget, which the ladder
// classifies as a budget failure and degrades to the exhaustive
// extraction — instead of the pre-fix behavior of hard-failing the job.
func TestRunNetworkJobLadderCatchesSATBudget(t *testing.T) {
	nw := netTestNetwork(t)
	want := nw.POFunction()
	opt := Options{Inject: func(point string) error {
		if point == "extract/windowed-sat" {
			return fmt.Errorf("injected mid-node exhaustion: %w", sat.ErrBudget)
		}
		return nil
	}}
	res, err := RunNetworkJobOpt(context.Background(), nw, JobOptions{
		Method: "lcf", Threshold: 0.55, DCMode: "windowed-sat",
	}, opt)
	if err != nil {
		t.Fatalf("ladder did not absorb the SAT budget failure: %v", err)
	}
	if !res.Degraded || len(res.Fallbacks) != 1 {
		t.Fatalf("degradation not reported: %+v", res)
	}
	fb := res.Fallbacks[0]
	if fb.Stage != "extract" || fb.From != "extract/windowed-sat" ||
		fb.To != "extract/exhaustive" || fb.Reason != "budget" {
		t.Fatalf("fallback wrong: %+v", fb)
	}
	if res.DCMode != JobDCExhaustive {
		t.Fatalf("fallback rung %q, want exhaustive", res.DCMode)
	}
	if !res.Network.POFunction().Equal(want) {
		t.Fatal("fallback reassignment changed PO functions")
	}
}

// Strict mode disables the ladder: the same failure is returned as a
// budget StageError with the partial result still reporting the attempt.
func TestRunNetworkJobStrictSATBudget(t *testing.T) {
	nw := netTestNetwork(t)
	opt := Options{Strict: true, Inject: func(point string) error {
		if point == "extract/windowed-sat" {
			return fmt.Errorf("injected: %w", sat.ErrBudget)
		}
		return nil
	}}
	res, err := RunNetworkJobOpt(context.Background(), nw, JobOptions{
		Method: "lcf", Threshold: 0.55, DCMode: "windowed-sat",
	}, opt)
	if err == nil {
		t.Fatal("strict run absorbed a budget failure")
	}
	var se *StageError
	if !errors.As(err, &se) || se.Reason != ReasonBudget || !errors.Is(err, sat.ErrBudget) {
		t.Fatalf("error not a sat.ErrBudget StageError: %v", err)
	}
	if res == nil || len(res.Stages) == 0 || res.Network != nil {
		t.Fatalf("partial result wrong: %+v", res)
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
