package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"

	"relsyn/internal/blif"
	"relsyn/internal/network"
	"relsyn/internal/obs"
	"relsyn/internal/pipeline"
)

// testBLIF is a 3-input full adder: enough internal structure for the
// extraction ladder to do real work, small enough for every engine.
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

func postResyn(t *testing.T, base string, body any) (*http.Response, ResynResponse, []byte) {
	t.Helper()
	resp, raw := postJSON(t, base+"/v1/resyn", body)
	var rr ResynResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		t.Fatalf("resyn body not JSON: %v\n%s", err, raw)
	}
	return resp, rr, raw
}

// The /v1/resyn happy path: the response carries the job result and a
// re-parseable BLIF whose primary-output functions match the input's.
func TestResynEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, Metrics: obs.NewRegistry()})
	resp, rr, raw := postResyn(t, ts.URL, map[string]any{
		"blif":    testBLIF,
		"options": map[string]any{"threshold": 0.6},
	})
	if resp.StatusCode != http.StatusOK || rr.Status != StatusDone {
		t.Fatalf("HTTP %d status %q: %s", resp.StatusCode, rr.Status, raw)
	}
	if rr.Result == nil || rr.Result.DCMode != pipeline.JobDCExhaustive || !rr.Result.Equivalent {
		t.Fatalf("result %+v", rr.Result)
	}
	if rr.Result.NumPI != 3 || rr.Result.NumPO != 2 {
		t.Fatalf("interface %+v", rr.Result)
	}
	orig, err := blif.Parse(strings.NewReader(testBLIF))
	if err != nil {
		t.Fatal(err)
	}
	back, err := blif.Parse(strings.NewReader(rr.BLIF))
	if err != nil {
		t.Fatalf("response BLIF unparseable: %v\n%s", err, rr.BLIF)
	}
	if !back.POFunction().Equal(orig.POFunction()) {
		t.Fatal("reassigned network changed PO functions")
	}
}

// Malformed inputs are 400 "invalid": bad JSON, empty/unparseable BLIF,
// the retired extraction options, and options that fail validation never
// reach the backend.
func TestResynEndpointRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 8, Metrics: obs.NewRegistry(),
		ResynBackend: func(context.Context, *network.Network, pipeline.JobOptions) (*pipeline.NetworkJobResult, error) {
			t.Error("backend reached for an invalid request")
			return nil, errors.New("unreachable")
		},
	})
	cases := []struct {
		name string
		body any
		want string // substring of the error
	}{
		{"empty blif", map[string]any{"blif": ""}, "empty blif"},
		{"unparseable blif", map[string]any{"blif": ".model x\n.inputs a\n.outputs y\n.end\n"}, "parse blif"},
		{"bad dc_mode", map[string]any{"blif": testBLIF, "options": map[string]any{"dc_mode": "windowed-sat"}}, `unknown field "dc_mode"`},
		{"window_tfi", map[string]any{"blif": testBLIF, "options": map[string]any{"window_tfi": 2}}, `unknown field "window_tfi"`},
		{"window_tfo", map[string]any{"blif": testBLIF, "options": map[string]any{"window_tfo": 1}}, `unknown field "window_tfo"`},
		{"bad threshold", map[string]any{"blif": testBLIF, "options": map[string]any{"method": "lcf", "threshold": 2.0}}, "threshold"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, rr, raw := postResyn(t, ts.URL, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("HTTP %d, want 400: %s", resp.StatusCode, raw)
			}
			if rr.Status != "invalid" || !strings.Contains(rr.Error, tc.want) {
				t.Fatalf("envelope %+v, want an error naming %q", rr, tc.want)
			}
		})
	}
}

// A method that passes option validation but is refused by the network
// job itself ("rank") is a job failure — 200 with status "failed" — not
// a 400: the request was well-formed, the job outcome is data.
func TestResynEndpointNonLCFMethod(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, Metrics: obs.NewRegistry()})
	resp, rr, raw := postResyn(t, ts.URL, map[string]any{
		"blif":    testBLIF,
		"options": map[string]any{"method": "rank"},
	})
	if resp.StatusCode != http.StatusOK || rr.Status != StatusFailed {
		t.Fatalf("HTTP %d status %q: %s", resp.StatusCode, rr.Status, raw)
	}
	if !strings.Contains(rr.Error, "method") {
		t.Fatalf("error %q does not explain the method refusal", rr.Error)
	}
}

// A backend failure reports inside a 200 envelope with status "failed",
// mirroring /v1/synth's "the request was served; the outcome is data".
func TestResynEndpointBackendFailure(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 8, Metrics: obs.NewRegistry(),
		ResynBackend: func(context.Context, *network.Network, pipeline.JobOptions) (*pipeline.NetworkJobResult, error) {
			return &pipeline.NetworkJobResult{NumPI: 3}, errors.New("engine exploded")
		},
	})
	resp, rr, raw := postResyn(t, ts.URL, map[string]any{"blif": testBLIF})
	if resp.StatusCode != http.StatusOK || rr.Status != StatusFailed {
		t.Fatalf("HTTP %d status %q: %s", resp.StatusCode, rr.Status, raw)
	}
	if !strings.Contains(rr.Error, "engine exploded") || rr.Result == nil {
		t.Fatalf("envelope %+v", rr)
	}
}

// The handler defaults method to lcf and threshold to 0.55, and passes
// the server's timeout policy down: the backend sees fully-normalized
// options.
func TestResynEndpointDefaults(t *testing.T) {
	var got pipeline.JobOptions
	_, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 8, Metrics: obs.NewRegistry(),
		ResynBackend: func(_ context.Context, nw *network.Network, jo pipeline.JobOptions) (*pipeline.NetworkJobResult, error) {
			got = jo
			return pipeline.RunNetworkJob(context.Background(), nw, jo)
		},
	})
	resp, rr, raw := postResyn(t, ts.URL, map[string]any{"blif": testBLIF})
	if resp.StatusCode != http.StatusOK || rr.Status != StatusDone {
		t.Fatalf("HTTP %d status %q: %s", resp.StatusCode, rr.Status, raw)
	}
	if got.Method != pipeline.JobMethodLCF || got.Threshold != 0.55 {
		t.Fatalf("defaults not applied: %+v", got)
	}
	if got.TimeoutMs != (30 * 1000) { // DefaultTimeout default
		t.Fatalf("timeout default not applied: %d", got.TimeoutMs)
	}
}

// Draining refuses resyn work with 503, like every other admission path.
func TestResynEndpointDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, Metrics: obs.NewRegistry()})
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, rr, raw := postResyn(t, ts.URL, map[string]any{"blif": testBLIF})
	if resp.StatusCode != http.StatusServiceUnavailable || rr.Status != "draining" {
		t.Fatalf("HTTP %d status %q: %s", resp.StatusCode, rr.Status, raw)
	}
}
