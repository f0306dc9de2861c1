package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/experiments"
	"repro/internal/netsearch"
	"repro/internal/summarize"
)

// httpFixture starts the federation behind netsearch servers and the
// service behind httptest, exactly the deployment cmd/selectd runs.
func httpFixture(t *testing.T) (*httptest.Server, []*experiments.FederationDB) {
	t.Helper()
	dbs, err := experiments.Federation(3, 200, 17)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(analysis.Database(), nil)
	t.Cleanup(func() { svc.Close() })
	for _, db := range dbs {
		ns, err := netsearch.Serve(db.Index, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ns.Close() })
		if err := svc.Register(db.Name, ns.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return ts, dbs
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func TestHTTPHealthz(t *testing.T) {
	ts, _ := httpFixture(t)
	var health map[string]string
	resp := getJSON(t, ts.URL+"/healthz", &health)
	if resp.StatusCode != http.StatusOK || health["status"] != "ok" {
		t.Errorf("healthz = %d %v", resp.StatusCode, health)
	}
}

func TestHTTPListDatabases(t *testing.T) {
	ts, dbs := httpFixture(t)
	var statuses []DBStatus
	getJSON(t, ts.URL+"/databases", &statuses)
	if len(statuses) != len(dbs) {
		t.Fatalf("listed %d databases, want %d", len(statuses), len(dbs))
	}
}

func TestHTTPSampleRankSummaryFlow(t *testing.T) {
	ts, dbs := httpFixture(t)

	// Sample every database through the API.
	for _, db := range dbs {
		var st DBStatus
		resp := postJSON(t, fmt.Sprintf("%s/databases/%s/sample", ts.URL, db.Name),
			SampleOptions{Docs: 50, Seed: 7}, &st)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sample %s: status %d", db.Name, resp.StatusCode)
		}
		if !st.HasModel || st.SampledDocs == 0 {
			t.Errorf("sample %s status: %+v", db.Name, st)
		}
	}

	// Rank a topical query.
	terms := experiments.TopicalTerms(dbs[1], dbs, 2)
	var ranked []RankedDB
	resp := getJSON(t, ts.URL+"/rank?q="+url.QueryEscape(strings.Join(terms, " "))+"&alg=cori", &ranked)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rank: status %d", resp.StatusCode)
	}
	if len(ranked) != len(dbs) || ranked[0].Name != dbs[1].Name {
		t.Errorf("ranking = %+v, want %s first", ranked, dbs[1].Name)
	}

	// Summarize.
	var rows []summarize.Row
	resp = getJSON(t, fmt.Sprintf("%s/databases/%s/summary?metric=avg-tf&k=5", ts.URL, dbs[0].Name), &rows)
	if resp.StatusCode != http.StatusOK || len(rows) == 0 {
		t.Errorf("summary: status %d rows %d", resp.StatusCode, len(rows))
	}
}

func TestHTTPSampleEmptyBodyUsesDefaults(t *testing.T) {
	ts, dbs := httpFixture(t)
	resp, err := http.Post(fmt.Sprintf("%s/databases/%s/sample", ts.URL, dbs[0].Name), "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("empty-body sample: status %d", resp.StatusCode)
	}
}

func TestHTTPRegisterAndDelete(t *testing.T) {
	ts, _ := httpFixture(t)
	// Register a new (unreachable) database.
	resp := postJSON(t, ts.URL+"/databases", map[string]string{"name": "newdb", "addr": "127.0.0.1:1"}, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status %d", resp.StatusCode)
	}
	// Duplicate registration conflicts.
	resp = postJSON(t, ts.URL+"/databases", map[string]string{"name": "newdb", "addr": "127.0.0.1:1"}, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate register: status %d", resp.StatusCode)
	}
	// Missing addr rejected.
	resp = postJSON(t, ts.URL+"/databases", map[string]string{"name": "x"}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("register without addr: status %d", resp.StatusCode)
	}
	// Unroutable names rejected up front: an empty or "/"-only name would
	// register an entry that /databases/{name} can never address again
	// (empty path segment routes to 404), so it could never be sampled or
	// unregistered over HTTP.
	for _, bad := range []string{"", "/", "///"} {
		resp = postJSON(t, ts.URL+"/databases", map[string]string{"name": bad, "addr": "127.0.0.1:1"}, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("register name %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
	var statuses []DBStatus
	getJSON(t, ts.URL+"/databases", &statuses)
	for _, st := range statuses {
		if st.Name == "" || st.Name == "/" || st.Name == "///" {
			t.Errorf("unroutable name %q reached the registry", st.Name)
		}
	}
	// Delete it.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/databases/newdb", nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Errorf("delete: status %d", dresp.StatusCode)
	}
}

func TestHTTPEscapedDatabaseName(t *testing.T) {
	ts, dbs := httpFixture(t)
	// A name containing "/" and " " is legal in the registry; the HTTP
	// layer must route its escaped form back to the same entry.
	resp := postJSON(t, ts.URL+"/databases", map[string]string{"name": "team/db one", "addr": "127.0.0.1:1"}, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status %d", resp.StatusCode)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/databases/team%2Fdb%20one", nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete escaped name: status %d", dresp.StatusCode)
	}
	var statuses []DBStatus
	getJSON(t, ts.URL+"/databases", &statuses)
	if len(statuses) != len(dbs) {
		t.Errorf("escaped delete removed the wrong entry: %d databases left, want %d", len(statuses), len(dbs))
	}
}

func TestHTTPValidationErrorsAre400(t *testing.T) {
	ts, dbs := httpFixture(t)
	// An unsampled database's summary is the caller's mistake (400), not
	// an upstream failure (502).
	resp := getJSON(t, fmt.Sprintf("%s/databases/%s/summary?metric=df", ts.URL, dbs[0].Name), nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("summary before sampling: status %d, want 400", resp.StatusCode)
	}
	postJSON(t, fmt.Sprintf("%s/databases/%s/sample", ts.URL, dbs[0].Name), SampleOptions{Docs: 30}, nil)
	resp = getJSON(t, fmt.Sprintf("%s/databases/%s/summary?metric=bogus", ts.URL, dbs[0].Name), nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown metric: status %d, want 400", resp.StatusCode)
	}
	// A genuinely unreachable upstream is still a 502.
	postJSON(t, ts.URL+"/databases", map[string]string{"name": "down", "addr": "127.0.0.1:1"}, nil)
	resp = postJSON(t, ts.URL+"/databases/down/sample", nil, nil)
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("unreachable database sample: status %d, want 502", resp.StatusCode)
	}
}

func TestHTTPErrors(t *testing.T) {
	ts, _ := httpFixture(t)
	cases := []struct {
		method string
		path   string
		want   int
	}{
		{"GET", "/rank?q=", http.StatusBadRequest}, // empty query: the client's fault
		// An unready federation is the service's state, not the client's
		// mistake: 503, never 400 (the cluster front tier relies on rank
		// 4xx meaning "retrying elsewhere is pointless").
		{"GET", "/rank?q=apple", http.StatusServiceUnavailable}, // no models yet
		{"POST", "/databases/ghost/sample", http.StatusNotFound},
		{"GET", "/databases/ghost/summary", http.StatusNotFound},
		{"GET", "/databases/ghost/explode", http.StatusNotFound},
		{"DELETE", "/databases/ghost", http.StatusNotFound},
		{"PUT", "/databases", http.StatusMethodNotAllowed},
		{"POST", "/rank", http.StatusMethodNotAllowed},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, bytes.NewReader(nil))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %s: status %d, want %d", c.method, c.path, resp.StatusCode, c.want)
		}
	}
}

// TestHTTPRankAlgSpellings: the algorithm spellings GET /rank accepts are
// routable end to end, and one it does not know is the caller's mistake.
func TestHTTPRankAlgSpellings(t *testing.T) {
	ts, dbs := httpFixture(t)
	// Sample one database so ranking has a model to serve.
	var st DBStatus
	resp := postJSON(t, ts.URL+"/databases/"+url.PathEscape(dbs[0].Name)+"/sample", SampleOptions{Docs: 30, Seed: 9}, &st)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sample returned %d", resp.StatusCode)
	}

	var ranked []RankedDB
	for _, alg := range []string{"cori", "gloss-sum@0.2"} {
		rankURL := ts.URL + "/rank?q=" + url.QueryEscape("system data") + "&alg=" + url.QueryEscape(alg) + "&k=2"
		if resp = getJSON(t, rankURL, &ranked); resp.StatusCode != http.StatusOK {
			t.Fatalf("alg %q: rank returned %d", alg, resp.StatusCode)
		}
	}
	if resp = getJSON(t, ts.URL+"/rank?q=x&alg=bogus", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad alg: status=%d", resp.StatusCode)
	}
}
