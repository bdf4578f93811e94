package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"relsyn"
	"relsyn/internal/obs"
	"relsyn/internal/pipeline"
	"relsyn/internal/server"
	"relsyn/internal/tt"
)

// capture runs fn with os.Stdout redirected to a pipe and returns what
// it printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	errRun := fn()
	w.Close()
	os.Stdout = old
	buf := make([]byte, 1<<20)
	n, _ := r.Read(buf)
	r.Close()
	return string(buf[:n]), errRun
}

const testPLA = `
.i 3
.o 2
01- 10
1-1 01
000 -0
.e
`

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.pla")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunStats(t *testing.T) {
	path := writeTemp(t, testPLA)
	out, err := capture(t, func() error { return runStats([]string{"-in", path}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"inputs            3", "outputs           2", "exact bounds"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats output missing %q:\n%s", want, out)
		}
	}
}

var updateStats = flag.Bool("update", false, "rewrite testdata/stats.golden")

const statsGoldenPath = "testdata/stats.golden"

// TestRunStatsBench pins the full stats report of every built-in
// benchmark — C^f, E[C^f], the exact bounds and both estimates, all
// read through the library facade — against testdata/stats.golden.
// Regenerate with: go test ./cmd/relsyn -run TestRunStatsBench -update
func TestRunStatsBench(t *testing.T) {
	want := map[string]string{}
	if !*updateStats {
		data, err := os.ReadFile(statsGoldenPath)
		if err != nil {
			t.Fatal(err)
		}
		for _, block := range strings.Split(string(data), "== ")[1:] {
			name, report, _ := strings.Cut(block, "\n")
			want[name] = report
		}
	}
	var golden strings.Builder
	for _, b := range relsyn.Benchmarks() {
		t.Run(b.Name, func(t *testing.T) {
			out, err := capture(t, func() error { return runStats([]string{"-bench", b.Name}) })
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&golden, "== %s\n%s", b.Name, out)
			if !*updateStats && out != want[b.Name] {
				t.Errorf("stats report moved:\n got\n%s want\n%s", out, want[b.Name])
			}
		})
	}
	if *updateStats {
		if err := os.MkdirAll(filepath.Dir(statsGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(statsGoldenPath, []byte(golden.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunAssignRoundTrip(t *testing.T) {
	in := writeTemp(t, testPLA)
	out := filepath.Join(t.TempDir(), "out.pla")
	_, err := capture(t, func() error {
		return runAssign([]string{"-in", in, "-out", out, "-method", "rank", "-fraction", "1"})
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), ".i 3") {
		t.Fatalf("assigned PLA malformed:\n%s", data)
	}
	// The output must itself be consumable by stats.
	if _, err := capture(t, func() error { return runStats([]string{"-in", out}) }); err != nil {
		t.Fatal(err)
	}
}

func TestRunAssignMethods(t *testing.T) {
	in := writeTemp(t, testPLA)
	for _, method := range []string{"rank", "lcf", "complete"} {
		out := filepath.Join(t.TempDir(), method+".pla")
		if _, err := capture(t, func() error {
			return runAssign([]string{"-in", in, "-out", out, "-method", method})
		}); err != nil {
			t.Fatalf("%s: %v", method, err)
		}
	}
	if _, err := capture(t, func() error {
		return runAssign([]string{"-in", in, "-method", "bogus"})
	}); err == nil {
		t.Fatal("bogus method accepted")
	}
}

func TestRunSynth(t *testing.T) {
	in := writeTemp(t, testPLA)
	out, err := capture(t, func() error {
		return runSynth([]string{"-in", in, "-objective", "delay"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"area", "delay", "gates", "error rate"} {
		if !strings.Contains(out, want) {
			t.Fatalf("synth output missing %q:\n%s", want, out)
		}
	}
	if _, err := capture(t, func() error {
		return runSynth([]string{"-in", in, "-objective", "bogus"})
	}); err == nil {
		t.Fatal("bogus objective accepted")
	}
	if _, err := capture(t, func() error {
		return runSynth([]string{"-in", in, "-flow", "bogus"})
	}); err == nil {
		t.Fatal("bogus flow accepted")
	}
}

func TestRunVerilog(t *testing.T) {
	in := writeTemp(t, testPLA)
	outPath := filepath.Join(t.TempDir(), "top.v")
	if _, err := capture(t, func() error {
		return runVerilog([]string{"-in", in, "-module", "dut", "-out", outPath})
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "module dut(") || !strings.Contains(string(data), "endmodule") {
		t.Fatalf("Verilog malformed:\n%s", data)
	}
}

func TestRunDecompose(t *testing.T) {
	blifPath := filepath.Join(t.TempDir(), "net.blif")
	out, err := capture(t, func() error {
		return runDecompose([]string{"-bench", "bench", "-k", "4", "-blif", blifPath})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "nodes") || !strings.Contains(out, "err rate") {
		t.Fatalf("decompose output malformed:\n%s", out)
	}
	data, err := os.ReadFile(blifPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), ".model relsyn") {
		t.Fatalf("BLIF malformed:\n%s", data)
	}
}

const testBLIF = `.model fa
.inputs a b cin
.outputs sum cout
.names a b axb
10 1
01 1
.names axb cin sum
10 1
01 1
.names a b ab
11 1
.names axb cin ac
11 1
.names ab ac cout
1- 1
-1 1
.end
`

func writeTempBLIF(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "net.blif")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// resyn round-trips a BLIF network through the reassignment job: the
// human summary reports the extraction, and the emitted BLIF is itself
// consumable as resyn input.
func TestRunResyn(t *testing.T) {
	in := writeTempBLIF(t, testBLIF)
	out := filepath.Join(t.TempDir(), "out.blif")
	text, err := capture(t, func() error {
		return runResyn([]string{"-in", in, "-out", out})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"inputs           3", "outputs          2", "dc mode          exhaustive", "PO-equivalent    true"} {
		if !strings.Contains(text, want) {
			t.Fatalf("resyn output missing %q:\n%s", want, text)
		}
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), ".model relsyn") {
		t.Fatalf("BLIF malformed:\n%s", data)
	}
	// The emitted network must itself be consumable by resyn.
	if _, err := capture(t, func() error { return runResyn([]string{"-in", out}) }); err != nil {
		t.Fatalf("emitted BLIF rejected: %v", err)
	}
}

// resyn -json prints the relsynd /v1/resyn wire format: a status
// envelope around pipeline.NetworkJobResult.
func TestRunResynJSON(t *testing.T) {
	in := writeTempBLIF(t, testBLIF)
	out, err := capture(t, func() error {
		return runResyn([]string{"-in", in, "-json"})
	})
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Status string `json:"status"`
		Result *struct {
			NumPI      int    `json:"num_pi"`
			NumPO      int    `json:"num_po"`
			DCMode     string `json:"dc_mode"`
			Windows    int    `json:"windows"`
			Equivalent bool   `json:"equivalent"`
			CECMethod  string `json:"cec_method"`
		} `json:"result"`
	}
	if err := json.Unmarshal([]byte(out), &env); err != nil {
		t.Fatalf("resyn -json output is not JSON: %v\n%s", err, out)
	}
	if env.Status != "done" || env.Result == nil {
		t.Fatalf("envelope %+v", env)
	}
	if env.Result.NumPI != 3 || env.Result.NumPO != 2 ||
		env.Result.DCMode != "exhaustive" || env.Result.Windows != 0 {
		t.Fatalf("result %+v", env.Result)
	}
	if !env.Result.Equivalent || env.Result.CECMethod != "construction" {
		t.Fatalf("CEC not reported: %+v", env.Result)
	}
	// Human metric lines must not leak into the JSON stream.
	if strings.Contains(out, "dc mode ") {
		t.Fatalf("human output mixed into -json stream:\n%s", out)
	}
}

// resyn flag validation: a range mistake is a usage error (exit 2), a
// missing input file is a hard failure (exit 1).
func TestRunResynFlagValidation(t *testing.T) {
	in := writeTempBLIF(t, testBLIF)
	_, err := capture(t, func() error {
		return runResyn([]string{"-in", in, "-threshold", "1.5"})
	})
	if err == nil || exitCode(err) != exitUsage {
		t.Fatalf("bad -threshold classified as %d (%v)", exitCode(err), err)
	}
	_, err = capture(t, func() error {
		return runResyn([]string{"-in", filepath.Join(t.TempDir(), "missing.blif")})
	})
	if err == nil || exitCode(err) != exitFailure {
		t.Fatalf("missing input classified as %d (%v)", exitCode(err), err)
	}
}

// Each numeric flag is validated with a clear error before any work
// starts: -fraction in [0,1], -threshold in (0,1), -k >= 1.
func TestFlagValidation(t *testing.T) {
	in := writeTemp(t, testPLA)
	cases := []struct {
		name string
		run  func([]string) error
		args []string
		want string
	}{
		{"assign fraction high", runAssign, []string{"-in", in, "-fraction", "1.5"}, "-fraction"},
		{"assign fraction negative", runAssign, []string{"-in", in, "-fraction", "-0.1"}, "-fraction"},
		{"assign threshold zero", runAssign, []string{"-in", in, "-threshold", "0"}, "-threshold"},
		{"assign threshold high", runAssign, []string{"-in", in, "-threshold", "1.2"}, "-threshold"},
		{"synth fraction high", runSynth, []string{"-in", in, "-fraction", "2"}, "-fraction"},
		{"synth threshold one", runSynth, []string{"-in", in, "-threshold", "1"}, "-threshold"},
		{"decompose k zero", runDecompose, []string{"-in", in, "-k", "0"}, "-k"},
		{"decompose k negative", runDecompose, []string{"-in", in, "-k", "-3"}, "-k"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := capture(t, func() error { return tc.run(tc.args) })
			if err == nil {
				t.Fatalf("invalid flag accepted: %v", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the offending flag %q", err, tc.want)
			}
		})
	}
}

// The pipeline knobs demonstrably change behavior: a tiny -timeout turns
// a succeeding run into a prompt cancellation error, and a tiny
// -max-aig-nodes into a budget error.
func TestRunSynthPipelineFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthesis runs in -short mode")
	}
	// Baseline: succeeds and reports verification.
	out, err := capture(t, func() error {
		return runSynth([]string{"-bench", "bench", "-method", "lcf"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "verified    true") {
		t.Fatalf("synth output missing verification line:\n%s", out)
	}

	// -timeout: the same invocation under a 1ns budget is cancelled.
	if _, err := capture(t, func() error {
		return runSynth([]string{"-bench", "bench", "-method", "lcf", "-timeout", "1ns"})
	}); err == nil {
		t.Fatal("-timeout 1ns did not fail the run")
	} else if !strings.Contains(err.Error(), "cancel") {
		t.Fatalf("timeout error not classified as cancellation: %v", err)
	}

	// -max-aig-nodes: the sop flow is the ladder's last rung, so an AIG
	// too small for the circuit fails the run with a budget error.
	if _, err := capture(t, func() error {
		return runSynth([]string{"-bench", "bench", "-method", "lcf", "-max-aig-nodes", "1"})
	}); err == nil {
		t.Fatal("-max-aig-nodes 1 did not fail the run")
	} else if !strings.Contains(err.Error(), "budget") {
		t.Fatalf("AIG exhaustion not classified as budget: %v", err)
	}
}

// synth -json prints the relsynd wire format: a status envelope around
// pipeline.JobResult.
func TestRunSynthJSON(t *testing.T) {
	in := writeTemp(t, testPLA)
	out, err := capture(t, func() error {
		return runSynth([]string{"-in", in, "-method", "rank", "-fraction", "1", "-json"})
	})
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Status string `json:"status"`
		Result *struct {
			Spec struct {
				Inputs  int `json:"inputs"`
				Outputs int `json:"outputs"`
			} `json:"spec"`
			Assign *struct {
				Method   string `json:"method"`
				Assigned int    `json:"assigned"`
			} `json:"assign"`
			Metrics struct {
				Gates    int `json:"gates"`
				Literals int `json:"literals"`
			} `json:"metrics"`
			Verified bool `json:"verified"`
		} `json:"result"`
	}
	if err := json.Unmarshal([]byte(out), &env); err != nil {
		t.Fatalf("synth -json output is not JSON: %v\n%s", err, out)
	}
	if env.Status != "done" || env.Result == nil {
		t.Fatalf("envelope %+v", env)
	}
	if env.Result.Spec.Inputs != 3 || env.Result.Spec.Outputs != 2 {
		t.Fatalf("spec %+v", env.Result.Spec)
	}
	if env.Result.Assign == nil || env.Result.Assign.Method != "rank" {
		t.Fatalf("assign %+v", env.Result.Assign)
	}
	if env.Result.Metrics.Gates <= 0 || !env.Result.Verified {
		t.Fatalf("metrics/verified %+v", env.Result)
	}
	// Human metric lines must not leak into the JSON stream.
	if strings.Contains(out, "area        ") {
		t.Fatalf("human output mixed into -json stream:\n%s", out)
	}
}

// A failing strict run under -json still prints a machine-readable
// envelope (status "failed" + error) before exiting non-zero.
func TestRunSynthJSONFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthesis runs in -short mode")
	}
	out, err := capture(t, func() error {
		return runSynth([]string{"-bench", "bench", "-method", "lcf",
			"-max-aig-nodes", "1", "-strict", "-json"})
	})
	if err == nil {
		t.Fatal("strict budget exhaustion did not fail")
	}
	var env struct {
		Status string `json:"status"`
		Error  string `json:"error"`
	}
	if jerr := json.Unmarshal([]byte(out), &env); jerr != nil {
		t.Fatalf("failure output is not JSON: %v\n%s", jerr, out)
	}
	if env.Status != "failed" || !strings.Contains(env.Error, "budget") {
		t.Fatalf("envelope %+v", env)
	}
	if exitCode(err) != exitResource {
		t.Fatalf("exit code %d, want %d (resource-limited)", exitCode(err), exitResource)
	}
}

// Exit codes are stable: usage mistakes are distinct from hard failures,
// which are distinct from budget/timeout stops.
func TestExitCodes(t *testing.T) {
	if exitCode(nil) != exitOK {
		t.Fatal("nil error must exit 0")
	}
	if c := exitCode(usagef("-fraction out of range")); c != exitUsage {
		t.Fatalf("usage error exit %d", c)
	}
	if c := exitCode(errors.New("spec parse failed")); c != exitFailure {
		t.Fatalf("plain error exit %d", c)
	}
	budget := &pipeline.StageError{Stage: pipeline.StageAssign, Reason: pipeline.ReasonBudget}
	if c := exitCode(fmt.Errorf("wrapped: %w", budget)); c != exitResource {
		t.Fatalf("budget error exit %d", c)
	}
	cancel := &pipeline.StageError{Stage: pipeline.StageSynth, Reason: pipeline.ReasonCancel}
	if c := exitCode(cancel); c != exitResource {
		t.Fatalf("cancel error exit %d", c)
	}
	hard := &pipeline.StageError{Stage: pipeline.StageSynth, Reason: pipeline.ReasonPanic}
	if c := exitCode(hard); c != exitFailure {
		t.Fatalf("panic stage error exit %d", c)
	}
	// Flag-validation paths produce usage errors end-to-end.
	in := writeTemp(t, testPLA)
	_, err := capture(t, func() error {
		return runSynth([]string{"-in", in, "-fraction", "1.5"})
	})
	if exitCode(err) != exitUsage {
		t.Fatalf("bad -fraction classified as %d", exitCode(err))
	}
	_, err = capture(t, func() error {
		return runSynth([]string{"-in", in, "-objective", "bogus"})
	})
	if exitCode(err) != exitUsage {
		t.Fatalf("bad -objective classified as %d", exitCode(err))
	}
}

// A spec wider than tt.MaxInputs is refused while it is read: synth
// exits 1 at once instead of minimizing it.
func TestRunSynthRefusesWideSpec(t *testing.T) {
	n := tt.MaxInputs + 1
	in := writeTemp(t, fmt.Sprintf(".i %d\n.o 1\n1%s 1\n.e\n", n, strings.Repeat("-", n-1)))
	start := time.Now()
	_, err := capture(t, func() error { return runSynth([]string{"-in", in}) })
	if took := time.Since(start); took > time.Second {
		t.Fatalf("refusal took %v", took)
	}
	if !errors.Is(err, tt.ErrTooWide) || exitCode(err) != exitFailure {
		t.Fatalf("synth .i %d: err %v, exit %d; want tt.ErrTooWide, exit %d", n, err, exitCode(err), exitFailure)
	}
}

// A spec past tt.MaxCells is refused at its second header, and a header
// that resizes rows already read is a parse error: synth exits 1 for
// both (the second used to panic).
func TestRunSynthRefusesOversizedAndResizedSpecs(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want error
	}{
		{".i 16\n.o 200\n.e\n", tt.ErrTooLarge},
		{".i 2\n.o 1\n01 1\n.o 2\n.e\n", nil},
		{".i 3\n.o 1\n011 1\n.i 2\n.e\n", nil},
	} {
		in := writeTemp(t, tc.src)
		_, err := capture(t, func() error { return runSynth([]string{"-in", in}) })
		if err == nil || exitCode(err) != exitFailure || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Fatalf("%q: err %v, exit %d; want exit %d", tc.src, err, exitCode(err), exitFailure)
		}
	}
}

func TestLoadSpecMissingFile(t *testing.T) {
	if _, err := loadSpec("/nonexistent/file.pla", ""); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := loadSpec("", "nonesuch-benchmark"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// synth -trace prints a span tree to stderr: the CLI root span with the
// pipeline run and one span per stage attempt nested under it.
func TestRunSynthTrace(t *testing.T) {
	in := writeTemp(t, testPLA)
	// -trace writes to stderr; capture it alongside stdout.
	oldErr := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	_, runErr := capture(t, func() error {
		return runSynth([]string{"-in", in, "-method", "rank", "-fraction", "1", "-trace"})
	})
	w.Close()
	os.Stderr = oldErr
	raw, _ := io.ReadAll(r)
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	tree := string(raw)
	for _, want := range []string{"cli/synth", "pipeline/run", "stage/assign/dense", "stage/synth/sop", "stage/verify/"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("trace output missing %q:\n%s", want, tree)
		}
	}
	// Nesting: the pipeline span is indented under the CLI root.
	if !strings.Contains(tree, "\n  pipeline/run") {
		t.Fatalf("pipeline span not nested under root:\n%s", tree)
	}
}

// timingRE blanks the wall-clock fields that legitimately differ
// between two identical runs.
var timingRE = regexp.MustCompile(`"(took_ms|elapsed_ms)": [0-9.eE+-]+`)

func normalizeTimings(raw []byte) []byte {
	return timingRE.ReplaceAll(raw, []byte(`"$1": 0`))
}

// Differential test: for a fixed spec and options, the "result" object
// printed by `relsyn synth -json` is byte-identical (modulo wall-clock
// timings) to the "result" object in the relsynd /v1/synth response
// body — one wire format and one analysis path, produced by two front
// ends — for both of the paper's selective assignment methods.
func TestSynthJSONMatchesServiceResponse(t *testing.T) {
	in := writeTemp(t, testPLA)
	srv := server.New(server.Config{
		Workers: 1, QueueDepth: 8, CacheSize: 8, Metrics: obs.NewRegistry(),
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		name    string
		args    []string
		options map[string]any
	}{
		{"rank", []string{"-method", "rank", "-fraction", "1"},
			map[string]any{"method": "rank", "fraction": 1.0}},
		{"lcf", []string{"-method", "lcf", "-threshold", "0.55"},
			map[string]any{"method": "lcf", "threshold": 0.55}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cliOut, err := capture(t, func() error {
				return runSynth(append([]string{"-in", in, "-json"}, tc.args...))
			})
			if err != nil {
				t.Fatal(err)
			}
			var cliEnv struct {
				Status string          `json:"status"`
				Result json.RawMessage `json:"result"`
			}
			if err := json.Unmarshal([]byte(cliOut), &cliEnv); err != nil {
				t.Fatalf("CLI output not JSON: %v\n%s", err, cliOut)
			}
			if cliEnv.Status != "done" {
				t.Fatalf("CLI status %q", cliEnv.Status)
			}

			// Mirror the CLI's effective options exactly (runSynth
			// defaults objective=power, flow=sop).
			tc.options["objective"], tc.options["flow"] = "power", "sop"
			body, err := json.Marshal(map[string]any{"pla": testPLA, "options": tc.options})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/v1/synth", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("service HTTP %d: %s", resp.StatusCode, raw)
			}
			var svcEnv struct {
				Status string          `json:"status"`
				Result json.RawMessage `json:"result"`
			}
			if err := json.Unmarshal(raw, &svcEnv); err != nil {
				t.Fatalf("service body not JSON: %v\n%s", err, raw)
			}
			if svcEnv.Status != "done" {
				t.Fatalf("service status %q: %s", svcEnv.Status, raw)
			}

			cliRes := normalizeTimings(cliEnv.Result)
			svcRes := normalizeTimings(svcEnv.Result)
			if !bytes.Equal(cliRes, svcRes) {
				t.Fatalf("CLI and service results diverge\n--- cli ---\n%s\n--- service ---\n%s", cliRes, svcRes)
			}
		})
	}
}

// Differential test for network jobs: `relsyn resyn -json` and POST
// /v1/resyn on the same BLIF return the same result object (modulo
// wall-clock timings) and the same rewritten BLIF, on a network the
// exhaustive engine takes and on one above the dense ceiling that only
// windowed SAT can handle.
func TestResynJSONMatchesServiceResponse(t *testing.T) {
	big, err := os.ReadFile("../../internal/network/testdata/big120.blif")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Workers: 1, QueueDepth: 8, Metrics: obs.NewRegistry()})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range []struct{ name, blif, mode string }{
		{"fa", testBLIF, "exhaustive"},
		{"big120", string(big), "windowed-sat"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := writeTempBLIF(t, tc.blif)
			outPath := filepath.Join(t.TempDir(), "out.blif")
			cliOut, err := capture(t, func() error {
				return runResyn([]string{"-in", in, "-out", outPath, "-json"})
			})
			if err != nil {
				t.Fatal(err)
			}
			var cliEnv struct {
				Status string          `json:"status"`
				Result json.RawMessage `json:"result"`
			}
			if err := json.Unmarshal([]byte(cliOut), &cliEnv); err != nil {
				t.Fatalf("CLI output not JSON: %v\n%s", err, cliOut)
			}
			cliBLIF, err := os.ReadFile(outPath)
			if err != nil {
				t.Fatal(err)
			}

			body, err := json.Marshal(map[string]any{"blif": tc.blif})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/v1/resyn", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			var svcEnv struct {
				Status string          `json:"status"`
				Result json.RawMessage `json:"result"`
				BLIF   string          `json:"blif"`
			}
			if err := json.Unmarshal(raw, &svcEnv); err != nil {
				t.Fatalf("service body not JSON: %v\n%s", err, raw)
			}
			if resp.StatusCode != http.StatusOK || cliEnv.Status != "done" || svcEnv.Status != "done" {
				t.Fatalf("CLI status %q, service HTTP %d status %q: %s",
					cliEnv.Status, resp.StatusCode, svcEnv.Status, raw)
			}

			cliRes := normalizeTimings(cliEnv.Result)
			svcRes := normalizeTimings(svcEnv.Result)
			if !bytes.Equal(cliRes, svcRes) {
				t.Fatalf("CLI and service results diverge\n--- cli ---\n%s\n--- service ---\n%s", cliRes, svcRes)
			}
			if !bytes.Contains(cliRes, []byte(`"dc_mode": "`+tc.mode+`"`)) {
				t.Fatalf("engine %q not chosen:\n%s", tc.mode, cliRes)
			}
			if string(cliBLIF) != svcEnv.BLIF {
				t.Fatalf("CLI and service BLIF diverge\n--- cli ---\n%s\n--- service ---\n%s", cliBLIF, svcEnv.BLIF)
			}
		})
	}
}
