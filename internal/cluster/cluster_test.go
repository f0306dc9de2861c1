package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/netsearch"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// stubShard is a scriptable shard servable: it speaks the cluster
// capability interfaces directly, with the same wire-error markers the
// real Shard adapter emits, so front-tier failover logic can be tested
// without sampling a single document.
type stubShard struct {
	mu         sync.Mutex
	partial    []netsearch.RankedDB
	rankErr    error // returned while failFirst > 0, or always if failFirst == 0
	failFirst  int   // fail this many rank calls, then serve partial
	rankCalls  int
	registered map[string]string
}

func (s *stubShard) Search(query string, n int) ([]int, error) {
	return nil, errors.New("stub shard is not a document database")
}

func (s *stubShard) Fetch(id int) (corpus.Document, error) {
	return corpus.Document{}, errors.New("stub shard is not a document database")
}

// RankDBsStream answers every query of the batch with the scripted
// partial (stubs ignore the query text), or refuses the whole call.
func (s *stubShard) RankDBsStream(queries []string, alg string, k int, emit func(i int, item netsearch.RankedBatch) error) error {
	s.mu.Lock()
	s.rankCalls++
	fail := s.rankErr != nil && (s.failFirst == 0 || s.rankCalls <= s.failFirst)
	out := s.partial
	s.mu.Unlock()
	if fail {
		return s.rankErr
	}
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	for i := range queries {
		if err := emit(i, netsearch.RankedBatch{Ranked: out}); err != nil {
			return err
		}
	}
	return nil
}

func (s *stubShard) calls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rankCalls
}

func (s *stubShard) RegisterDB(name, addr string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.registered == nil {
		s.registered = map[string]string{}
	}
	if _, dup := s.registered[name]; dup {
		return errors.New(markExists + "database " + name + " already registered")
	}
	s.registered[name] = addr
	return nil
}

func (s *stubShard) UnregisterDB(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.registered[name]; !ok {
		return errors.New(markUnknown + "unknown database " + name)
	}
	delete(s.registered, name)
	return nil
}

func (s *stubShard) has(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.registered[name]
	return ok
}

var _ core.Database = (*stubShard)(nil)
var _ netsearch.StreamBatchRanker = (*stubShard)(nil)
var _ netsearch.Registrar = (*stubShard)(nil)

// serveStub exposes a stub shard on a loopback port and returns its addr.
func serveStub(t *testing.T, s *stubShard) string {
	t.Helper()
	srv, err := netsearch.Serve(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr()
}

func newTestFront(t *testing.T, slots [][]string, reg *telemetry.Registry) *Front {
	t.Helper()
	f, err := NewFront(slots, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestFrontScatterGatherFusesTopK(t *testing.T) {
	// Two slots partition the database set; the fused ranking interleaves
	// their partials by score, and — slot weights being uniform — the
	// shard-reported scores pass through the merge unscaled.
	s0 := &stubShard{partial: []netsearch.RankedDB{{Name: "db-a", Score: 0.9}, {Name: "db-c", Score: 0.2}}}
	s1 := &stubShard{partial: []netsearch.RankedDB{{Name: "db-b", Score: 0.5}, {Name: "db-d", Score: 0.1}}}
	f := newTestFront(t, [][]string{{serveStub(t, s0)}, {serveStub(t, s1)}}, telemetry.NewRegistry())

	got, err := f.Rank("apple pie", "cori", 3, "")
	if err != nil {
		t.Fatal(err)
	}
	want := []netsearch.RankedDB{{Name: "db-a", Score: 0.9}, {Name: "db-b", Score: 0.5}, {Name: "db-c", Score: 0.2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fused ranking = %+v, want %+v", got, want)
	}
}

func TestFrontFailoverOnReplicaError(t *testing.T) {
	// The preferred replica reports an infrastructure failure; the slot
	// answers from the next replica and the failover is booked.
	reg := telemetry.NewRegistry()
	bad := &stubShard{rankErr: errors.New("disk on fire")}
	good := &stubShard{partial: []netsearch.RankedDB{{Name: "db-a", Score: 0.7}}}
	f := newTestFront(t, [][]string{{serveStub(t, bad), serveStub(t, good)}}, reg)

	got, err := f.Rank("q", "cori", 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != "db-a" {
		t.Fatalf("failover ranking = %+v, want db-a from the healthy replica", got)
	}
	snap := reg.Snapshot()
	if snap.Counters["cluster_failovers_total"] != 1 {
		t.Errorf("cluster_failovers_total = %d, want 1", snap.Counters["cluster_failovers_total"])
	}
	health := f.Health()
	if health[0].ConsecutiveFailures != 1 || health[0].BreakerOpen {
		t.Errorf("failed replica health = %+v, want one booked failure and a closed breaker", health[0])
	}
	foundShardErr := false
	for name, v := range snap.Counters {
		if v > 0 && len(name) > len("cluster_shard_errors") && name[:len("cluster_shard_errors")] == "cluster_shard_errors" {
			foundShardErr = true
		}
	}
	if !foundShardErr {
		t.Error("no cluster_shard_errors{shard=...} counter was incremented")
	}
}

func TestFrontBreakerTripsAndCloses(t *testing.T) {
	// A lone replica failing DefaultTripThreshold times in a row trips its
	// breaker; the next success through the half-open probe closes it.
	reg := telemetry.NewRegistry()
	s := &stubShard{
		partial:   []netsearch.RankedDB{{Name: "db-a", Score: 0.4}},
		rankErr:   errors.New("transient shard failure"),
		failFirst: DefaultTripThreshold,
	}
	f := newTestFront(t, [][]string{{serveStub(t, s)}}, reg)

	for i := 0; i < DefaultTripThreshold; i++ {
		if _, err := f.Rank("q", "cori", 1, ""); err == nil {
			t.Fatalf("rank %d succeeded against an all-failing slot", i)
		}
	}
	if h := f.Health(); !h[0].BreakerOpen || h[0].ConsecutiveFailures != DefaultTripThreshold {
		t.Fatalf("health after %d failures = %+v, want an open breaker", DefaultTripThreshold, h[0])
	}
	if trips := reg.Snapshot().Counters["cluster_breaker_trips_total"]; trips != 1 {
		t.Errorf("cluster_breaker_trips_total = %d, want 1", trips)
	}

	// The stub now serves; the last-resort probe must close the breaker.
	got, err := f.Rank("q", "cori", 1, "")
	if err != nil {
		t.Fatalf("rank through half-open breaker: %v", err)
	}
	if len(got) != 1 || got[0].Name != "db-a" {
		t.Fatalf("half-open probe ranking = %+v", got)
	}
	if h := f.Health(); h[0].BreakerOpen || h[0].ConsecutiveFailures != 0 {
		t.Errorf("health after recovery = %+v, want a closed breaker and zero failures", h[0])
	}
}

func TestFrontOpenBreakerRoutesAroundPrimary(t *testing.T) {
	// Once the preferred replica's breaker is open, queries go to the
	// healthy replica first — and that routing counts as a failover even
	// though no RPC failed on the spot.
	reg := telemetry.NewRegistry()
	bad := &stubShard{rankErr: errors.New("shard wedged")}
	good := &stubShard{partial: []netsearch.RankedDB{{Name: "db-a", Score: 0.6}}}
	f := newTestFront(t, [][]string{{serveStub(t, bad), serveStub(t, good)}}, reg)

	for i := 0; i < DefaultTripThreshold; i++ {
		if _, err := f.Rank("q", "cori", 1, ""); err != nil {
			t.Fatalf("rank %d: %v (the healthy replica should have answered)", i, err)
		}
	}
	if h := f.Health(); !h[0].BreakerOpen {
		t.Fatalf("primary breaker still closed after %d failures: %+v", DefaultTripThreshold, h[0])
	}
	before := reg.Snapshot().Counters["cluster_failovers_total"]
	badCalls := bad.calls()
	if _, err := f.Rank("q", "cori", 1, ""); err != nil {
		t.Fatal(err)
	}
	if after := reg.Snapshot().Counters["cluster_failovers_total"]; after != before+1 {
		t.Errorf("cluster_failovers_total = %d, want %d (open primary routed around)", after, before+1)
	}
	if bad.calls() != badCalls {
		t.Errorf("open-breaker replica was still probed first (%d new calls)", bad.calls()-badCalls)
	}
}

func TestFrontInvalidErrorAbortsWithoutFailover(t *testing.T) {
	// A marked invalid-argument error is the client's mistake: every
	// replica would refuse identically, so the front must not fail over,
	// must not damage replica health, and must surface ErrInvalid.
	reg := telemetry.NewRegistry()
	bad := &stubShard{rankErr: errors.New(markInvalid + "unknown algorithm \"bogus\"")}
	second := &stubShard{partial: []netsearch.RankedDB{{Name: "db-a", Score: 0.5}}}
	f := newTestFront(t, [][]string{{serveStub(t, bad), serveStub(t, second)}}, reg)

	_, err := f.Rank("q", "bogus", 1, "")
	if !errors.Is(err, service.ErrInvalid) {
		t.Fatalf("rank error = %v, want service.ErrInvalid", err)
	}
	if second.calls() != 0 {
		t.Errorf("invalid error failed over to the second replica (%d calls)", second.calls())
	}
	snap := reg.Snapshot()
	if snap.Counters["cluster_failovers_total"] != 0 {
		t.Errorf("cluster_failovers_total = %d, want 0", snap.Counters["cluster_failovers_total"])
	}
	if h := f.Health(); h[0].ConsecutiveFailures != 0 {
		t.Errorf("client mistake booked as replica failure: %+v", h[0])
	}
}

func TestFrontAllReplicasDown(t *testing.T) {
	s := &stubShard{rankErr: errors.New("wedged")}
	f := newTestFront(t, [][]string{{serveStub(t, s)}}, telemetry.NewRegistry())
	_, err := f.Rank("q", "cori", 1, "")
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("all 1 replicas failed")) {
		t.Errorf("error = %v, want the all-replicas-failed report", err)
	}
}

func TestFrontColdFederation(t *testing.T) {
	// Shards with no models contribute empty partials; an entirely cold
	// federation is ErrNoModels (503 over HTTP), not an empty 200.
	s0, s1 := &stubShard{}, &stubShard{}
	f := newTestFront(t, [][]string{{serveStub(t, s0)}, {serveStub(t, s1)}}, telemetry.NewRegistry())
	if _, err := f.Rank("q", "cori", 5, ""); !errors.Is(err, service.ErrNoModels) {
		t.Fatalf("cold-federation error = %v, want service.ErrNoModels", err)
	}

	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/rank?q=apple")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("GET /rank on cold cluster = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("X-Trace-Id") == "" {
		t.Error("front response is missing X-Trace-Id")
	}
}

func TestFrontHTTPRegisterRoutesByRing(t *testing.T) {
	// POST /databases must land the name on every replica of exactly the
	// ring-owning slot, idempotently; DELETE must remove it and 404 only
	// once no replica knows it.
	stubs := [][]*stubShard{
		{{}, {}},
		{{}, {}},
	}
	slots := make([][]string, len(stubs))
	for i, reps := range stubs {
		for _, s := range reps {
			slots[i] = append(slots[i], serveStub(t, s))
		}
	}
	f := newTestFront(t, slots, telemetry.NewRegistry())
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+"/databases", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	resp := post(`{"name":"db-x","addr":"127.0.0.1:1"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /databases = %d, want 201", resp.StatusCode)
	}
	var created struct {
		Registered string `json:"registered"`
		Slot       int    `json:"slot"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	owner := f.Ring().Owner("db-x")
	if created.Slot != owner {
		t.Errorf("reported slot %d, ring owner is %d", created.Slot, owner)
	}
	for i, reps := range stubs {
		for j, s := range reps {
			if got, want := s.has("db-x"), i == owner; got != want {
				t.Errorf("slot %d replica %d has db-x = %v, want %v", i, j, got, want)
			}
		}
	}

	// Registering again is idempotent (heals partial failures).
	if resp := post(`{"name":"db-x","addr":"127.0.0.1:1"}`); resp.StatusCode != http.StatusCreated {
		t.Errorf("duplicate POST /databases = %d, want 201", resp.StatusCode)
	}

	// Unroutable names and missing addrs are the client's fault.
	for _, body := range []string{
		`{"name":"","addr":"127.0.0.1:1"}`,
		`{"name":"///","addr":"127.0.0.1:1"}`,
		`{"name":"db-y"}`,
	} {
		if resp := post(body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST /databases %s = %d, want 400", body, resp.StatusCode)
		}
	}

	del := func(name string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodDelete, srv.URL+"/databases/"+name, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := del("db-x"); code != http.StatusOK {
		t.Errorf("DELETE /databases/db-x = %d, want 200", code)
	}
	for _, s := range stubs[owner] {
		if s.has("db-x") {
			t.Error("db-x still registered on the owning slot after DELETE")
		}
	}
	if code := del("db-x"); code != http.StatusNotFound {
		t.Errorf("second DELETE /databases/db-x = %d, want 404", code)
	}
}

func TestFrontHTTPRankMatchesDirectRank(t *testing.T) {
	s := &stubShard{partial: []netsearch.RankedDB{{Name: "db-a", Score: 0.9}, {Name: "db-b", Score: 0.3}}}
	f := newTestFront(t, [][]string{{serveStub(t, s)}}, telemetry.NewRegistry())
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/rank?q=apple&alg=cori&k=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /rank = %d, want 200", resp.StatusCode)
	}
	var got []netsearch.RankedDB
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	want, err := f.Rank("apple", "cori", 2, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("HTTP ranking %+v != direct ranking %+v", got, want)
	}
}

func TestParseSlots(t *testing.T) {
	slots, err := ParseSlots("h1:9001|h2:9001, h1:9002|h2:9002 ,h3:9003")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"h1:9001", "h2:9001"}, {"h1:9002", "h2:9002"}, {"h3:9003"}}
	if !reflect.DeepEqual(slots, want) {
		t.Errorf("ParseSlots = %v, want %v", slots, want)
	}
	for _, bad := range []string{"", ",", "a:1,|"} {
		if _, err := ParseSlots(bad); err == nil {
			t.Errorf("ParseSlots(%q) accepted a broken spec", bad)
		}
	}
}

// TestFrontShardedEqualsSingleProcessGloss is the partitioning soundness
// check: gGlOSS scores are per-database local (unlike CORI's
// federation-wide cf and avg_cw), so sharding the federation must not
// change any database's score. The fused cluster ranking and the
// single-process ranking must agree score-for-score.
func TestFrontShardedEqualsSingleProcessGloss(t *testing.T) {
	dbs, err := experiments.Federation(5, 150, 31)
	if err != nil {
		t.Fatal(err)
	}
	sample := service.SampleOptions{Docs: 40, Seed: 7}

	single := service.New(analysis.Database(), nil)
	for _, db := range dbs {
		if err := single.RegisterLocal(db.Name, db.Index); err != nil {
			t.Fatal(err)
		}
		if _, err := single.Sample(db.Name, sample); err != nil {
			t.Fatal(err)
		}
	}

	// Two shards, databases assigned by the same ring the front routes by.
	shards := []*service.Service{service.New(analysis.Database(), nil), service.New(analysis.Database(), nil)}
	var addrs [][]string
	for _, svc := range shards {
		srv, err := ServeShard(svc, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, []string{srv.Addr()})
	}
	f := newTestFront(t, addrs, telemetry.NewRegistry())
	for _, db := range dbs {
		svc := shards[f.Ring().Owner(db.Name)]
		if err := svc.RegisterLocal(db.Name, db.Index); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Sample(db.Name, sample); err != nil {
			t.Fatal(err)
		}
	}

	terms := experiments.TopicalTerms(dbs[0], dbs, 4)
	query := terms[0] + " " + terms[1]

	want, err := single.Rank(query, "gloss-sum", 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Rank(query, "gloss-sum", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("sharded ranking has %d rows, single-process has %d", len(got), len(want))
	}
	// Scores must agree exactly per database (tie order between equal
	// scores may differ across topologies, so compare as a score map and
	// check both rankings are sorted).
	wantScores := map[string]float64{}
	for _, r := range want {
		wantScores[r.Name] = r.Score
	}
	for i, r := range got {
		if s, ok := wantScores[r.Name]; !ok || s != r.Score {
			t.Errorf("sharded score for %s = %v, single-process = %v (present %v)", r.Name, r.Score, s, ok)
		}
		if i > 0 && got[i-1].Score < r.Score {
			t.Errorf("sharded ranking not sorted at %d: %v < %v", i, got[i-1].Score, r.Score)
		}
	}
}
