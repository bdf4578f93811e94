package cluster

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"relsyn/internal/obs"
)

// The request counter of a status code is a series only once a request
// has had that code, and each later request adds to the same series.
func TestInstrumentCountsByCode(t *testing.T) {
	reg := obs.NewRegistry()
	h := Instrument(reg, "/r", func(w http.ResponseWriter, r *http.Request) {
		code, _ := strconv.Atoi(r.URL.Query().Get("code"))
		w.WriteHeader(code)
	})
	exposition := func() string {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	serve := func(code, times int) {
		for range times {
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/r?code="+strconv.Itoa(code), nil))
		}
	}
	serve(200, 3)
	if text := exposition(); !strings.Contains(text, `relsyn_http_requests_total{code="200",route="/r"} 3`) ||
		strings.Contains(text, `code="404"`) {
		t.Fatalf("after three 200s:\n%s", text)
	}
	serve(404, 2)
	serve(200, 1)
	text := exposition()
	for _, want := range []string{
		`relsyn_http_requests_total{code="200",route="/r"} 4`,
		`relsyn_http_requests_total{code="404",route="/r"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
}
