package serving_test

// The HTTP contract of the rank surface, checked once against every kind
// of tier behind it: a single-process Service, a Front over two shard
// services on loopback netsearch, and a scripted fake. The handlers are
// the same code for all three (serving.NewHandler); what this test pins is
// that each tier's Ranker, instruments and error vocabulary come out of
// them as the same wire behaviour.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/admission"
	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/serving"
	"repro/internal/telemetry"
)

// fixture is one tier ready to serve: its handler in the three states the
// contract distinguishes, and the inputs that mean the same thing to it as
// to the others.
type fixture struct {
	h      http.Handler // the tier with learned models
	cold   http.Handler // the same kind of tier before any model is learned
	down   http.Handler // the tier with its upstream failing (nil: it has none)
	reg    *telemetry.Registry
	prefix string // metric prefix
	query  string // ranks at least two databases
	// coldStreamsPerItem: a cold stream reports "no models" per item
	// instead of refusing whole (the front cannot see every item first).
	coldStreamsPerItem bool
}

const stopwords = "the and of" // analyzes to no index terms

// env holds what is expensive to build and safe to share between cases:
// sampled services, the shard servers in front of them, and a query.
type env struct {
	svc          *service.Service
	shards, cold [][]string // slot topologies: warm shards, model-less shards
	dead         [][]string // a slot whose only replica refuses connections
	query        string
}

func newEnv(t *testing.T) *env {
	t.Helper()
	dbs, err := experiments.Federation(4, 150, 31)
	if err != nil {
		t.Fatal(err)
	}
	terms := experiments.TopicalTerms(dbs[0], dbs, 2)
	e := &env{svc: service.New(analysis.Database(), nil), query: terms[0] + " " + terms[1] + " system data"}
	t.Cleanup(func() { e.svc.Close() })
	serve := func(svc *service.Service) []string {
		srv, err := cluster.ServeShard(svc, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return []string{srv.Addr()}
	}
	ring := cluster.NewRing(2, 0, 0)
	warm := []*service.Service{service.New(analysis.Database(), nil), service.New(analysis.Database(), nil)}
	for _, db := range dbs {
		for _, svc := range []*service.Service{e.svc, warm[ring.Owner(db.Name)]} {
			if err := svc.RegisterLocal(db.Name, db.Index); err != nil {
				t.Fatal(err)
			}
			if _, err := svc.Sample(db.Name, service.SampleOptions{Docs: 40, Seed: 7}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, svc := range warm {
		e.shards = append(e.shards, serve(svc))
		e.cold = append(e.cold, serve(service.New(analysis.Database(), nil)))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	e.dead = [][]string{{ln.Addr().String()}}
	ln.Close()
	return e
}

func (e *env) service(t *testing.T, adm admission.Config) *fixture {
	reg := telemetry.NewRegistry()
	e.svc.SetMetrics(reg)
	e.svc.SetAdmission(adm)
	return &fixture{
		h:    e.svc.Handler(),
		cold: service.New(analysis.Database(), nil).Handler(),
		reg:  reg, prefix: "service", query: e.query,
	}
}

func (e *env) front(t *testing.T, adm admission.Config) *fixture {
	reg := telemetry.NewRegistry()
	build := func(slots [][]string, reg *telemetry.Registry) http.Handler {
		f, err := cluster.NewFront(slots, cluster.Options{Metrics: reg, Admission: adm})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f.Handler()
	}
	return &fixture{
		h: build(e.shards, reg), cold: build(e.cold, nil), down: build(e.dead, nil),
		reg: reg, prefix: "cluster", query: e.query, coldStreamsPerItem: true,
	}
}

// fakeTier is a Tier scripted by its inputs: any algorithm but cori is
// invalid, the stopword query has no index terms, and fail (when set) is
// what every rank answers.
type fakeTier struct {
	reg  *telemetry.Registry
	gate *admission.Gate
	fail error
}

var fakeRows = []serving.RankedDB{{Name: "db-a", Score: 0.9}, {Name: "db-b", Score: 1.0 / 3}, {Name: "db-c", Score: 0.1}}

func (f *fakeTier) rank(query, alg string, k int) ([]serving.RankedDB, error) {
	switch {
	case alg != "" && alg != "cori":
		return nil, fmt.Errorf("fake: unknown algorithm %q: %w", alg, serving.ErrInvalid)
	case f.fail != nil:
		return nil, f.fail
	case query == stopwords:
		return nil, fmt.Errorf("fake: query has no index terms: %w", serving.ErrInvalid)
	}
	rows := fakeRows
	if k > 0 && k < len(rows) {
		rows = rows[:k]
	}
	return append([]serving.RankedDB(nil), rows...), nil
}

func (f *fakeTier) Rank(_ context.Context, query, alg string, k int) ([]serving.RankedDB, error) {
	return f.rank(query, alg, k)
}

func (f *fakeTier) RankStream(_ context.Context, queries []string, alg string, k int, emit func(int, serving.Item) error) error {
	if _, err := f.rank("", alg, k); err != nil {
		return err // whole-request refusals come before the first emit
	}
	for i, q := range queries {
		var it serving.Item
		rows, err := f.rank(q, alg, k)
		if it.Ranked = rows; err != nil {
			it.Error = err.Error()
		}
		if err := emit(i, it); err != nil {
			return err
		}
	}
	return nil
}

func (f *fakeTier) Metrics() *telemetry.Registry { return f.reg }
func (f *fakeTier) Logger() *slog.Logger         { return telemetry.NopLogger() }
func (f *fakeTier) Gate() *admission.Gate        { return f.gate }

func (e *env) fake(t *testing.T, adm admission.Config) *fixture {
	reg := telemetry.NewRegistry()
	build := func(reg *telemetry.Registry, fail error) http.Handler {
		tier := &fakeTier{reg: reg, gate: admission.New(adm, reg, "fake"), fail: fail}
		return serving.NewHandler(tier, "fake", map[string]string{"status": "ok"}, nil)
	}
	return &fixture{
		h:    build(reg, nil),
		cold: build(nil, serving.ErrNoModels),
		down: build(nil, errors.New("fake: upstream on fire")),
		reg:  reg, prefix: "fake", query: "apple pie",
	}
}

// do serves one request in process and returns the recorded response.
func do(h http.Handler, method, target string, body any, header ...string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, newRequest(context.Background(), method, target, body, header...))
	return rr
}

func newRequest(ctx context.Context, method, target string, body any, header ...string) *http.Request {
	var buf bytes.Buffer
	switch b := body.(type) {
	case nil:
	case string:
		buf.WriteString(b)
	default:
		if err := json.NewEncoder(&buf).Encode(b); err != nil {
			panic(err)
		}
	}
	req := httptest.NewRequest(method, target, &buf).WithContext(ctx)
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	return req
}

type batchBody struct {
	Queries []string `json:"queries"`
	Alg     string   `json:"alg,omitempty"`
	K       int      `json:"k,omitempty"`
}

type batchReply struct {
	Results []serving.Item `json:"results"`
}

// frame decodes any frame of a rank stream.
type frame struct {
	Index   int                `json:"index"`
	Ranked  []serving.RankedDB `json:"ranked"`
	Error   string             `json:"error"`
	Done    bool               `json:"done"`
	Results int                `json:"results"`
}

// frames splits a streamed body into its frames, checking the framing:
// one JSON object per line, or per "data: " event when sse.
func frames(t *testing.T, body string, sse bool) []frame {
	t.Helper()
	sep, prefix := "\n", ""
	if sse {
		sep, prefix = "\n\n", "data: "
	}
	if !strings.HasSuffix(body, sep) {
		t.Fatalf("stream does not end in a frame separator: %q", body)
	}
	var out []frame
	for _, raw := range strings.Split(strings.TrimSuffix(body, sep), sep) {
		var f frame
		if !strings.HasPrefix(raw, prefix) {
			t.Fatalf("frame %q lacks the %q prefix", raw, prefix)
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(raw, prefix)), &f); err != nil {
			t.Fatalf("bad frame %q: %v", raw, err)
		}
		out = append(out, f)
	}
	return out
}

// hookWriter is a recorder that calls hook once, after the first body
// write has been recorded — the point at which a stream is provably
// mid-flight with its admission ticket held.
type hookWriter struct {
	*httptest.ResponseRecorder
	once sync.Once
	hook func()
}

func (w *hookWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseRecorder.Write(p)
	w.once.Do(w.hook)
	return n, err
}

func wantStatus(t *testing.T, rr *httptest.ResponseRecorder, want int, what string) {
	t.Helper()
	if rr.Code != want {
		t.Errorf("%s: status %d, want %d (body %q)", what, rr.Code, want, rr.Body)
	}
	if want >= 400 && rr.Header().Get("Content-Type") != "application/json" {
		t.Errorf("%s: error Content-Type = %q, want application/json", what, rr.Header().Get("Content-Type"))
	}
}

// wantIdle asserts that nothing is left in flight: every gauge that counts
// in-flight work reads zero.
func wantIdle(t *testing.T, fx *fixture) {
	t.Helper()
	for name, v := range fx.reg.Snapshot().Gauges {
		if strings.Contains(name, "inflight") && v != 0 {
			t.Errorf("gauge %s = %d after the request ended, want 0", name, v)
		}
	}
}

var contract = []struct {
	name string
	adm  admission.Config
	run  func(t *testing.T, fx *fixture)
}{
	{name: "methods and unknown paths", run: func(t *testing.T, fx *fixture) {
		wantStatus(t, do(fx.h, http.MethodPost, "/rank?q=x", nil), http.StatusMethodNotAllowed, "POST /rank")
		wantStatus(t, do(fx.h, http.MethodGet, "/rank/batch", nil), http.StatusMethodNotAllowed, "GET /rank/batch")
		if rr := do(fx.h, http.MethodGet, "/nope", nil); rr.Code != http.StatusNotFound {
			t.Errorf("GET /nope: status %d, want 404", rr.Code)
		}
		if rr := do(fx.h, http.MethodGet, "/healthz", nil); rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), `"status":"ok"`) {
			t.Errorf("GET /healthz: %d %q", rr.Code, rr.Body)
		}
		if rr := do(fx.h, http.MethodGet, "/metrics", nil); rr.Code != http.StatusOK {
			t.Errorf("GET /metrics with a registry: status %d", rr.Code)
		}
		if rr := do(fx.cold, http.MethodGet, "/metrics", nil); rr.Code != http.StatusNotFound {
			t.Errorf("GET /metrics without a registry: status %d, want 404", rr.Code)
		}
	}},
	{name: "the caller's mistakes are 400", run: func(t *testing.T, fx *fixture) {
		q := "/rank?q=" + strings.ReplaceAll(fx.query, " ", "+")
		for _, target := range []string{q + "&alg=bogus-alg", q + "&k=abc", q + "&k=-1", "/rank?q=" + strings.ReplaceAll(stopwords, " ", "+")} {
			wantStatus(t, do(fx.h, http.MethodGet, target, nil), http.StatusBadRequest, target)
		}
		for what, body := range map[string]any{
			"bad algorithm":  batchBody{Queries: []string{fx.query}, Alg: "bogus-alg"},
			"empty batch":    batchBody{Alg: "cori"},
			"oversize batch": batchBody{Queries: make([]string, serving.MaxBatchQueries+1)},
			"negative k":     batchBody{Queries: []string{fx.query}, K: -1},
			"malformed body": `{"queries":`,
		} {
			// Refused before the first frame, a stream answers exactly like
			// the buffered form: plain JSON, same status.
			for _, target := range []string{"/rank/batch", "/rank/batch?stream=1"} {
				wantStatus(t, do(fx.h, http.MethodPost, target, body), http.StatusBadRequest, what+" "+target)
			}
		}
		big := `{"queries":["` + strings.Repeat("x", serving.MaxBodyBytes) + `"]}`
		wantStatus(t, do(fx.h, http.MethodPost, "/rank/batch", big), http.StatusRequestEntityTooLarge, "oversize body")
	}},
	{name: "no models is 503, a failing upstream 502", run: func(t *testing.T, fx *fixture) {
		body := batchBody{Queries: []string{"apple", "pie"}}
		wantStatus(t, do(fx.cold, http.MethodGet, "/rank?q=apple", nil), http.StatusServiceUnavailable, "cold rank")
		wantStatus(t, do(fx.cold, http.MethodPost, "/rank/batch", body), http.StatusServiceUnavailable, "cold batch")
		rr := do(fx.cold, http.MethodPost, "/rank/batch?stream=1", body)
		if !fx.coldStreamsPerItem {
			wantStatus(t, rr, http.StatusServiceUnavailable, "cold stream")
		} else {
			fs := frames(t, rr.Body.String(), false)
			if rr.Code != http.StatusOK || len(fs) != 3 || !fs[2].Done {
				t.Fatalf("cold stream: %d %q", rr.Code, rr.Body)
			}
			for _, f := range fs[:2] {
				if !strings.Contains(f.Error, serving.ErrNoModels.Error()) {
					t.Errorf("cold stream item %d = %+v, want a no-models error", f.Index, f)
				}
			}
		}
		if fx.down != nil {
			wantStatus(t, do(fx.down, http.MethodGet, "/rank?q=apple", nil), http.StatusBadGateway, "rank with upstream down")
			wantStatus(t, do(fx.down, http.MethodPost, "/rank/batch", body), http.StatusBadGateway, "batch with upstream down")
			wantStatus(t, do(fx.down, http.MethodPost, "/rank/batch?stream=1", body), http.StatusBadGateway, "stream with upstream down")
		}
	}},
	{name: "buffered and streamed batches agree to the bit", run: func(t *testing.T, fx *fixture) {
		body := batchBody{Queries: []string{fx.query, stopwords, fx.query}, Alg: "cori", K: 2}
		var buffered batchReply
		rr := do(fx.h, http.MethodPost, "/rank/batch", body)
		wantStatus(t, rr, http.StatusOK, "buffered batch")
		if err := json.Unmarshal(rr.Body.Bytes(), &buffered); err != nil {
			t.Fatal(err)
		}
		if len(buffered.Results) != 3 || len(buffered.Results[0].Ranked) != 2 || buffered.Results[1].Error == "" {
			t.Fatalf("buffered batch: %+v", buffered)
		}
		for _, sse := range []bool{false, true} {
			accept, ctype := "", "application/x-ndjson"
			if sse {
				accept, ctype = "text/event-stream", "text/event-stream"
			}
			rr := do(fx.h, http.MethodPost, "/rank/batch?stream=1", body, "Accept", accept)
			if rr.Code != http.StatusOK || rr.Header().Get("Content-Type") != ctype {
				t.Fatalf("stream (sse=%v): status %d, Content-Type %q", sse, rr.Code, rr.Header().Get("Content-Type"))
			}
			fs := frames(t, rr.Body.String(), sse)
			if len(fs) != 4 {
				t.Fatalf("stream (sse=%v): %d frames for 3 queries (+done)", sse, len(fs))
			}
			if done := fs[3]; !done.Done || done.Results != 3 {
				t.Errorf("terminal frame: %+v", done)
			}
			for i, f := range fs[:3] {
				want := buffered.Results[i]
				if f.Index != i || f.Error != want.Error || len(f.Ranked) != len(want.Ranked) {
					t.Fatalf("frame %d = %+v, buffered %+v", i, f, want)
				}
				for j, row := range f.Ranked {
					if row.Name != want.Ranked[j].Name || math.Float64bits(row.Score) != math.Float64bits(want.Ranked[j].Score) {
						t.Errorf("frame %d row %d: streamed %+v != buffered %+v", i, j, row, want.Ranked[j])
					}
				}
			}
		}
		if got := fx.reg.Counter(fx.prefix + "_stream_ranks_total").Value(); got != 2 {
			t.Errorf("%s_stream_ranks_total = %d, want 2", fx.prefix, got)
		}
	}},
	{name: "no cache header, X-Trace-Id is echoed or assigned", run: func(t *testing.T, fx *fixture) {
		target := "/rank?q=" + strings.ReplaceAll(fx.query, " ", "+") + "&k=2"
		first := do(fx.h, http.MethodGet, target, nil, "X-Trace-Id", "trace-from-client")
		second := do(fx.h, http.MethodGet, target, nil)
		wantStatus(t, first, http.StatusOK, "first rank")
		// No tier keeps a ranking, so none has a cache disposition to report:
		// a rank's only extension header is its trace ID.
		for _, rec := range []*httptest.ResponseRecorder{first, second} {
			for name, val := range rec.Header() {
				if strings.HasPrefix(name, "X-") && name != "X-Trace-Id" {
					t.Errorf("unexpected response header %s: %q", name, val)
				}
			}
		}
		if first.Body.String() != second.Body.String() {
			t.Errorf("repeated rank differs: %q vs %q", first.Body, second.Body)
		}
		if got := first.Header().Get("X-Trace-Id"); got != "trace-from-client" {
			t.Errorf("X-Trace-Id = %q, want the client's", got)
		}
		if second.Header().Get("X-Trace-Id") == "" {
			t.Error("no X-Trace-Id assigned to a request that brought none")
		}
	}},
	{name: "an overloaded gate sheds with 429 and Retry-After", adm: admission.Config{MaxInFlight: 1}, run: func(t *testing.T, fx *fixture) {
		// A stream parked in its first write holds the gate's only slot.
		entered, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
		parked := &hookWriter{ResponseRecorder: httptest.NewRecorder(), hook: func() { close(entered); <-release }}
		body := batchBody{Queries: []string{fx.query}, K: 2}
		go func() {
			defer close(done)
			fx.h.ServeHTTP(parked, newRequest(context.Background(), http.MethodPost, "/rank/batch?stream=1", body))
		}()
		<-entered
		for what, rr := range map[string]*httptest.ResponseRecorder{
			"rank":  do(fx.h, http.MethodGet, "/rank?q=apple", nil),
			"batch": do(fx.h, http.MethodPost, "/rank/batch", body),
		} {
			wantStatus(t, rr, http.StatusTooManyRequests, "saturated "+what)
			if got := rr.Header().Get("Retry-After"); got != "1" {
				t.Errorf("saturated %s: Retry-After %q, want 1", what, got)
			}
		}
		close(release)
		<-done
		if got := fx.reg.Counter(fx.prefix + `_shed_total{reason="inflight"}`).Value(); got != 2 {
			t.Errorf("shed counter = %d, want 2", got)
		}
		// Load never changes an admitted answer: the stream that held the
		// slot and every reply after it are whole, with no degradation
		// marker in a header or a body.
		admitted := map[string]*httptest.ResponseRecorder{
			"parked stream": parked.ResponseRecorder,
			"rank":          do(fx.h, http.MethodGet, "/rank?q="+strings.ReplaceAll(fx.query, " ", "+")+"&k=2", nil),
			"batch":         do(fx.h, http.MethodPost, "/rank/batch", body),
			"stream":        do(fx.h, http.MethodPost, "/rank/batch?stream=1", body),
		}
		for what, rr := range admitted {
			wantStatus(t, rr, http.StatusOK, what+" after release")
			if got := rr.Header().Get("X-Degraded-K"); got != "" {
				t.Errorf("%s: X-Degraded-K %q", what, got)
			}
			if strings.Contains(rr.Body.String(), `"degraded"`) {
				t.Errorf("%s: body carries a degraded key: %q", what, rr.Body)
			}
		}
		if fs := frames(t, admitted["parked stream"].Body.String(), false); len(fs) != 2 || len(fs[0].Ranked) != 2 || !fs[1].Done {
			t.Errorf("parked stream: %+v", fs)
		}
		wantIdle(t, fx)
	}},
	{name: "a client that leaves mid-stream is noticed", adm: admission.Config{MaxInFlight: 8}, run: func(t *testing.T, fx *fixture) {
		// The client hangs up the moment the first frame is written.
		ctx, cancel := context.WithCancel(context.Background())
		gone := &hookWriter{ResponseRecorder: httptest.NewRecorder(), hook: cancel}
		body := batchBody{Queries: []string{fx.query, fx.query + " again", fx.query}}
		fx.h.ServeHTTP(gone, newRequest(ctx, http.MethodPost, "/rank/batch?stream=1", body))
		fs := frames(t, gone.Body.String(), false)
		if len(fs) != 1 || fs[0].Done {
			t.Errorf("frames written to a client that left after the first: %+v", fs)
		}
		if got := fx.reg.Counter(fx.prefix + "_stream_aborts_total").Value(); got != 1 {
			t.Errorf("%s_stream_aborts_total = %d, want 1", fx.prefix, got)
		}
		wantIdle(t, fx)
		// The tier still serves.
		wantStatus(t, do(fx.h, http.MethodPost, "/rank/batch", body), http.StatusOK, "batch after the abort")
	}},
	{name: "a client that leaves with frames held got each earlier frame once", adm: admission.Config{MaxInFlight: 8}, run: func(t *testing.T, fx *fixture) {
		// The client hangs up on the second write — frames 1 and 2 — so the
		// stream is cut inside the group 3..6, which is being held.
		ctx, cancel := context.WithCancel(context.Background())
		gone := &nthWriteHook{ResponseRecorder: httptest.NewRecorder(), n: 2, hook: cancel}
		body := batchBody{Queries: make([]string, 8)}
		for i := range body.Queries {
			body.Queries[i] = fx.query + strings.Repeat(" again", i)
		}
		fx.h.ServeHTTP(gone, newRequest(ctx, http.MethodPost, "/rank/batch?stream=1", body))
		fs := frames(t, gone.Body.String(), false)
		if len(fs) != 3 {
			t.Fatalf("%d frames written to a client that left after the third, want 3", len(fs))
		}
		for i, f := range fs {
			if f.Index != i || f.Done || len(f.Ranked) == 0 {
				t.Errorf("frame %d = %+v", i, f)
			}
		}
		if got := fx.reg.Counter(fx.prefix + "_stream_aborts_total").Value(); got != 1 {
			t.Errorf("%s_stream_aborts_total = %d, want 1", fx.prefix, got)
		}
		wantIdle(t, fx)
		wantStatus(t, do(fx.h, http.MethodPost, "/rank/batch", body), http.StatusOK, "batch after the abort")
	}},
}

func TestHTTPContract(t *testing.T) {
	e := newEnv(t)
	tiers := []struct {
		name  string
		build func(*testing.T, admission.Config) *fixture
	}{
		{"service", e.service},
		{"front", e.front},
		{"fake", e.fake},
	}
	for _, tier := range tiers {
		t.Run(tier.name, func(t *testing.T) {
			for _, c := range contract {
				t.Run(c.name, func(t *testing.T) { c.run(t, tier.build(t, c.adm)) })
			}
		})
	}
}
