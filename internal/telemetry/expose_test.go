package telemetry

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// golden registry used by the exposition tests: two labelled counters in
// one family, a plain counter, a gauge, and a small labelled histogram.
func goldenRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	clk := NewManualClock(time.Unix(0, 0))
	r.SetClock(clk.Now)
	r.Counter(`service_samples_total{db="b"}`).Add(3)
	r.Counter(`service_samples_total{db="a"}`).Add(1)
	r.Counter("netsearch_dials_total").Add(2)
	r.Gauge("service_inflight_samples").Set(1)
	h := r.HistogramBuckets(`op_seconds{op="search"}`, []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5) // +Inf bucket
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry(t).WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE netsearch_dials_total counter
netsearch_dials_total 2
# TYPE op_seconds histogram
op_seconds_bucket{op="search",le="0.1"} 2
op_seconds_bucket{op="search",le="1"} 3
op_seconds_bucket{op="search",le="+Inf"} 4
op_seconds_sum{op="search"} 5.6
op_seconds_count{op="search"} 4
# TYPE service_inflight_samples gauge
service_inflight_samples 1
# TYPE service_samples_total counter
service_samples_total{db="a"} 1
service_samples_total{db="b"} 3
`
	if got := buf.String(); got != want {
		t.Fatalf("prometheus output mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestWritePrometheusIsDeterministic(t *testing.T) {
	render := func() string {
		var buf bytes.Buffer
		if err := goldenRegistry(t).WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("prometheus output not deterministic:\n%s\nvs\n%s", a, b)
	}
}

func TestHandlerAcceptNegotiation(t *testing.T) {
	h := Handler(goldenRegistry(t))

	// Prometheus scrape: text/plain preference gets the text format.
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "text/plain;version=0.0.4;q=0.5,*/*;q=0.1")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); ct != ContentTypePrometheus {
		t.Fatalf("content type = %q, want prometheus text", ct)
	}
	if !strings.Contains(rec.Body.String(), "# TYPE netsearch_dials_total counter") {
		t.Fatalf("text body missing TYPE line:\n%s", rec.Body.String())
	}

	// JSON client.
	req = httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "application/json")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q, want application/json", ct)
	}
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("JSON body does not parse: %v", err)
	}
	if snap.Counters["netsearch_dials_total"] != 2 {
		t.Fatalf("JSON counters wrong: %+v", snap.Counters)
	}

	// ?format= overrides the header both ways.
	req = httptest.NewRequest("GET", "/metrics?format=json", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("format=json content type = %q", ct)
	}
	req = httptest.NewRequest("GET", "/metrics?format=prometheus", nil)
	req.Header.Set("Accept", "application/json")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); ct != ContentTypePrometheus {
		t.Fatalf("format=prometheus content type = %q", ct)
	}

	// Non-GET is rejected.
	req = httptest.NewRequest("POST", "/metrics", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 405 {
		t.Fatalf("POST /metrics = %d, want 405", rec.Code)
	}
}

func TestVarsHandlerAlwaysJSON(t *testing.T) {
	h := VarsHandler(goldenRegistry(t))
	req := httptest.NewRequest("GET", "/debug/vars", nil)
	req.Header.Set("Accept", "text/plain")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q, want application/json", ct)
	}
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("vars body does not parse: %v", err)
	}
}

func TestSplitName(t *testing.T) {
	cases := []struct{ in, base, labels string }{
		{"plain_total", "plain_total", ""},
		{`x_total{db="a"}`, "x_total", `db="a"`},
		{`x{a="1",b="2"}`, "x", `a="1",b="2"`},
		{"odd{unclosed", "odd{unclosed", ""},
	}
	for _, c := range cases {
		base, labels := splitName(c.in)
		if base != c.base || labels != c.labels {
			t.Errorf("splitName(%q) = (%q, %q), want (%q, %q)", c.in, base, labels, c.base, c.labels)
		}
	}
}

// TestEscapeLabel pins the three escapes of a label value, and that every
// other byte, a single quote and non-ASCII text included, passes as it is.
func TestEscapeLabel(t *testing.T) {
	in := "a\\b \"c\"\nd 'é'"
	want := `a\\b \"c\"\nd 'é'`
	if got := EscapeLabel(in); got != want {
		t.Errorf("EscapeLabel(%q) = %q, want %q", in, got, want)
	}
}
