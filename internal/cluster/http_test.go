package cluster

// The front's HTTP rank surface is the serving core's (internal/serving,
// whose contract test pins it for every tier); these tests drive it
// through a real front — admission, degradation, buffered and streamed
// batches fused over the wire.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"

	"repro/internal/admission"
	"repro/internal/analysis"
	"repro/internal/experiments"
	"repro/internal/netsearch"
	"repro/internal/service"
	"repro/internal/serving"
	"repro/internal/telemetry"
)

// batchRankRequest and batchRankResponse are the POST /rank/batch wire
// shapes, as a client declares them.
type batchRankRequest struct {
	Queries []string `json:"queries"`
	Alg     string   `json:"alg,omitempty"`
	K       int      `json:"k,omitempty"`
}

type batchRankResponse struct {
	Results  []netsearch.RankedBatch `json:"results"`
	Degraded bool                    `json:"degraded,omitempty"`
}

func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
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

// sampledCluster builds a front over nShards real shards, registers a
// small federation by ring placement, and samples every database — the
func TestFrontHTTPRankBatch(t *testing.T) {
	f, dbs := sampledCluster(t, 2)
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(ts.Close)
	terms := experiments.TopicalTerms(dbs[0], dbs, 2)

	var out batchRankResponse
	resp := postJSON(t, ts.URL+"/rank/batch",
		batchRankRequest{Queries: []string{terms[0] + " " + terms[1], "the and of"}, Alg: "cori", K: 3}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}
	if len(out.Results) != 2 || len(out.Results[0].Ranked) == 0 || out.Results[1].Error == "" {
		t.Fatalf("batch response: %+v", out)
	}

	if resp := postJSON(t, ts.URL+"/rank/batch", batchRankRequest{Alg: "cori"}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/rank/batch",
		batchRankRequest{Queries: make([]string, serving.MaxBatchQueries+1), Alg: "cori"}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversize batch: status %d, want 400", resp.StatusCode)
	}
	get, err := http.Get(ts.URL + "/rank/batch")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /rank/batch: status %d, want 405", get.StatusCode)
	}
}

// TestFrontAdmissionOverload: the front sheds deterministically at its
// in-flight cap with 429 + Retry-After, and serves normally under it.
func TestFrontAdmissionOverload(t *testing.T) {
	s := &stubShard{partial: []netsearch.RankedDB{{Name: "db-a", Score: 0.9}}}
	reg := telemetry.NewRegistry()
	f, err := NewFront([][]string{{serveStub(t, s)}}, Options{
		Metrics:   reg,
		Admission: admission.Config{MaxInFlight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(ts.Close)
	shedCap := reg.Counter(`cluster_shed_total{reason="inflight"}`)

	ticket, ok := f.gate.Admit()
	if !ok {
		t.Fatal("idle gate refused the first admit")
	}
	resp, err := http.Get(ts.URL + "/rank?q=apple&alg=cori")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("saturated rank: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	resp = postJSON(t, ts.URL+"/rank/batch",
		batchRankRequest{Queries: []string{"apple"}, Alg: "cori"}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated batch: status %d, want 429", resp.StatusCode)
	}
	// Retry-After parity: the batch shed speaks the same overload contract
	// as the single path.
	if resp.Header.Get("Retry-After") == "" {
		t.Error("batch 429 without a Retry-After header")
	}
	// A streamed batch sheds identically — the refusal happens before any
	// frame, so the client still gets a plain 429.
	resp = postJSON(t, ts.URL+"/rank/batch?stream=1",
		batchRankRequest{Queries: []string{"apple"}, Alg: "cori"}, nil)
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("saturated streamed batch: status %d, Retry-After %q",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if shedCap.Value() != 3 {
		t.Fatalf("shed counter = %d, want 3", shedCap.Value())
	}

	ticket.Release()
	resp, err = http.Get(ts.URL + "/rank?q=apple&alg=cori")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release rank: status %d", resp.StatusCode)
	}
	if shedCap.Value() != 3 {
		t.Errorf("request under the limit shed: counter = %d, want 3", shedCap.Value())
	}
}

func TestFrontAdmissionDegradesK(t *testing.T) {
	s := &stubShard{partial: []netsearch.RankedDB{
		{Name: "db-a", Score: 0.9}, {Name: "db-b", Score: 0.5}, {Name: "db-c", Score: 0.2},
	}}
	f, err := NewFront([][]string{{serveStub(t, s)}}, Options{
		Metrics:   telemetry.NewRegistry(),
		Admission: admission.Config{MaxInFlight: 8, DegradeAt: 1, DegradeK: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(ts.Close)

	var ranked []netsearch.RankedDB
	resp := getJSON(t, ts.URL+"/rank?q=apple&alg=cori&k=3", &ranked)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded rank: status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Degraded-K") != "1" || len(ranked) != 1 {
		t.Errorf("degraded rank: X-Degraded-K=%q rows=%d, want 1 and 1",
			resp.Header.Get("X-Degraded-K"), len(ranked))
	}
	var batch batchRankResponse
	resp = postJSON(t, ts.URL+"/rank/batch",
		batchRankRequest{Queries: []string{"apple"}, Alg: "cori", K: 3}, &batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded batch: status %d", resp.StatusCode)
	}
	if !batch.Degraded || len(batch.Results[0].Ranked) != 1 {
		t.Errorf("degraded batch: %+v", batch)
	}
}

// TestFrontHTTPRankBatchStream: NDJSON over the front's HTTP surface, done
// frame included.
func TestFrontHTTPRankBatchStream(t *testing.T) {
	f, dbs := sampledCluster(t, 2)
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(ts.Close)
	terms := experiments.TopicalTerms(dbs[0], dbs, 2)

	queries := []string{terms[0] + " " + terms[1], "the and of"}
	body, err := json.Marshal(batchRankRequest{Queries: queries, Alg: "cori", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/rank/batch?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	type frame struct {
		Index   int                  `json:"index"`
		Ranked  []netsearch.RankedDB `json:"ranked"`
		Error   string               `json:"error"`
		Done    bool                 `json:"done"`
		Results int                  `json:"results"`
	}
	var frames []frame
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var fr frame
		if err := json.Unmarshal(sc.Bytes(), &fr); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Text(), err)
		}
		frames = append(frames, fr)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(frames) != 3 {
		t.Fatalf("got %d frames, want 2 items + done", len(frames))
	}
	if frames[0].Index != 0 || len(frames[0].Ranked) == 0 {
		t.Errorf("frame 0: %+v", frames[0])
	}
	if frames[1].Index != 1 || frames[1].Error == "" {
		t.Errorf("frame 1 should carry the stopword error: %+v", frames[1])
	}
	if !frames[2].Done || frames[2].Results != 2 {
		t.Errorf("done frame: %+v", frames[2])
	}

	// Whole-batch errors stay plain JSON with the buffered status.
	resp2 := postJSON(t, ts.URL+"/rank/batch?stream=1", batchRankRequest{Alg: "cori"}, nil)
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("empty streamed batch: status %d, want 400", resp2.StatusCode)
	}
}

// TestFrontRankFollowsShardResample: a front keeps no ranking, so GET /rank
// after a shard re-samples a database answers from the new models, though a
// re-sample never moves the front's topology epoch. gGlOSS scores are
// per-database local, so the fused answer must equal a single process's
// over the same models to the bit, whatever the shard count.
func TestFrontRankFollowsShardResample(t *testing.T) {
	for _, nShards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("%d shards", nShards), func(t *testing.T) {
			dbs, err := experiments.Federation(4, 150, 31)
			if err != nil {
				t.Fatal(err)
			}
			single := service.New(analysis.Database(), nil)
			shards := make([]*service.Service, nShards)
			var addrs [][]string
			for i := range shards {
				shards[i] = service.New(analysis.Database(), nil)
				srv, err := ServeShard(shards[i], "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { srv.Close() })
				addrs = append(addrs, []string{srv.Addr()})
			}
			f := newTestFront(t, addrs, telemetry.NewRegistry())
			ts := httptest.NewServer(f.Handler())
			t.Cleanup(ts.Close)
			// homes are the two services that hold db: its owning shard and
			// the single-process reference.
			homes := func(db *experiments.FederationDB) []*service.Service {
				return []*service.Service{single, shards[f.Ring().Owner(db.Name)]}
			}
			sample := func(db *experiments.FederationDB, opts service.SampleOptions) {
				t.Helper()
				for _, svc := range homes(db) {
					if _, err := svc.Sample(db.Name, opts); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, db := range dbs {
				for _, svc := range homes(db) {
					if err := svc.RegisterLocal(db.Name, db.Index); err != nil {
						t.Fatal(err)
					}
				}
				sample(db, service.SampleOptions{Docs: 40, Seed: 7})
			}

			terms := experiments.TopicalTerms(dbs[0], dbs, 2)
			query := terms[0] + " " + terms[1]
			rankURL := ts.URL + "/rank?alg=gloss-sum&q=" + url.QueryEscape(query)
			var first, second []netsearch.RankedDB
			if resp := getJSON(t, rankURL, &first); resp.StatusCode != http.StatusOK {
				t.Fatalf("first rank: status %d", resp.StatusCode)
			}
			sample(dbs[0], service.SampleOptions{Docs: 120, Seed: 11})
			if resp := getJSON(t, rankURL, &second); resp.StatusCode != http.StatusOK {
				t.Fatalf("second rank: status %d", resp.StatusCode)
			}
			if reflect.DeepEqual(first, second) {
				t.Fatalf("the re-sample did not change the ranking: %+v", first)
			}

			want, err := single.Rank(query, "gloss-sum", 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(second) != len(want) {
				t.Fatalf("front ranks %d databases after the re-sample, single process %d", len(second), len(want))
			}
			wantScores := map[string]float64{}
			for _, r := range want {
				wantScores[r.Name] = r.Score
			}
			for _, r := range second {
				if s, ok := wantScores[r.Name]; !ok || math.Float64bits(s) != math.Float64bits(r.Score) {
					t.Errorf("after the re-sample the front scores %s %v, the new epoch's single-process ranking %v (present %v)", r.Name, r.Score, s, ok)
				}
			}
		})
	}
}
