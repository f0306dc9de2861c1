package service

// Tests for the batch rank path and the admission-control wiring around
// the serving surface: bit-identical batch-vs-sequential ranking, whole
// batch and per-item error handling, the POST /rank/batch endpoint, and
// deterministic overload behavior (429 + Retry-After: 1, shed counters).

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/admission"
	"repro/internal/analysis"
	"repro/internal/loadgen"
	"repro/internal/serving"
	"repro/internal/store"
)

// TestRankBatchMatchesSequential is the batch-vs-sequential property test:
// RankBatch and Rank share rankSnapshot, so for every query, algorithm,
// and k the rankings must agree to the bit — not approximately, exactly.
func TestRankBatchMatchesSequential(t *testing.T) {
	svc, _ := sampledFixture(t)
	queries := []string{
		"system data language",
		"stock market data",
		"system data language", // repeats must not perturb scratch reuse
		"data",
		"language model database selection",
	}
	for _, alg := range []string{"cori", "gloss-sum"} {
		for _, k := range []int{0, 1, 2} {
			items, err := svc.RankBatch(queries, alg, k)
			if err != nil {
				t.Fatalf("RankBatch(%s, k=%d): %v", alg, k, err)
			}
			if len(items) != len(queries) {
				t.Fatalf("got %d items for %d queries", len(items), len(queries))
			}
			for i, q := range queries {
				want, err := svc.Rank(q, alg, k)
				if err != nil {
					t.Fatalf("Rank(%q, %s, %d): %v", q, alg, k, err)
				}
				got := items[i]
				if got.Error != "" {
					t.Fatalf("item %d unexpected error %q", i, got.Error)
				}
				if len(got.Ranked) != len(want) {
					t.Fatalf("item %d: %d rows vs %d sequential", i, len(got.Ranked), len(want))
				}
				for j := range want {
					if got.Ranked[j].Name != want[j].Name ||
						math.Float64bits(got.Ranked[j].Score) != math.Float64bits(want[j].Score) {
						t.Fatalf("item %d row %d: batch %+v != sequential %+v",
							i, j, got.Ranked[j], want[j])
					}
				}
			}
		}
	}
}

// TestRankTopKIsPrefixOnEveryPath: rankSnapshot hands k to the scorer's
// bounded selection, so on every path that funnels into it (single, batch,
// stream) the answer for k must be the first k rows of the answer for "all",
// to the bit. 64 warm synthetic models put k = 1..15 on the heap side of the
// selection and 16 and up on the full-sort side; the unknown-terms query is
// the all-tied federation whose top k is the first k names.
func TestRankTopKIsPrefixOnEveryPath(t *testing.T) {
	const nDBs = 64
	models, words := loadgen.SyntheticModels(nDBs, 0xbe7c)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc := New(analysis.Database(), st)
	t.Cleanup(func() { svc.Close() })
	for i, m := range models {
		name := fmt.Sprintf("db-%03d", i)
		if err := st.Put(name, m); err != nil {
			t.Fatal(err)
		}
		if err := svc.Register(name, "prefix.invalid:0"); err != nil {
			t.Fatal(err)
		}
	}
	queries := []string{
		words[3] + " " + words[17] + " " + words[3999],
		words[250],
		"qqunknown zzunknown",
		words[1200] + " qqunknown",
	}
	same := func(label string, got, want []RankedDB) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
		}
		for j := range want {
			if got[j].Name != want[j].Name || math.Float64bits(got[j].Score) != math.Float64bits(want[j].Score) {
				t.Fatalf("%s row %d: %+v, the full ranking has %+v", label, j, got[j], want[j])
			}
		}
	}
	for _, alg := range []string{"cori", "gloss-sum", "gloss-ind@0.2"} {
		full := make([][]RankedDB, len(queries))
		for i, q := range queries {
			if full[i], err = svc.Rank(q, alg, 0); err != nil || len(full[i]) != nDBs {
				t.Fatalf("Rank(%q, %s, 0): %d rows, %v", q, alg, len(full[i]), err)
			}
		}
		if alg == "cori" {
			for j, r := range full[2] {
				if want := fmt.Sprintf("db-%03d", j); r.Name != want || r.Score != 0.4 {
					t.Fatalf("unknown-terms ranking row %d is %+v, want %s at 0.4", j, r, want)
				}
			}
		}
		for _, k := range []int{1, 3, 10, 15, 16, 32, nDBs - 1, nDBs, nDBs + 5} {
			batch, err := svc.RankBatch(queries, alg, k)
			if err != nil {
				t.Fatalf("RankBatch(%s, %d): %v", alg, k, err)
			}
			streamed := make([]BatchItem, len(queries))
			if err := svc.RankBatchStream(queries, alg, k, func(i int, item BatchItem) error {
				streamed[i] = item
				return nil
			}); err != nil {
				t.Fatalf("RankBatchStream(%s, %d): %v", alg, k, err)
			}
			for i, q := range queries {
				want := full[i][:min(k, nDBs)]
				single, err := svc.Rank(q, alg, k)
				if err != nil {
					t.Fatalf("Rank(%q, %s, %d): %v", q, alg, k, err)
				}
				label := fmt.Sprintf("%s k=%d %q", alg, k, q)
				same(label+" single", single, want)
				same(label+" batch", batch[i].Ranked, want)
				same(label+" stream", streamed[i].Ranked, want)
			}
		}
	}
}

func TestRankBatchWholeBatchErrors(t *testing.T) {
	svc, _ := sampledFixture(t)
	if _, err := svc.RankBatch(nil, "cori", 0); !errors.Is(err, ErrInvalid) {
		t.Errorf("empty batch: err = %v, want ErrInvalid", err)
	}
	if _, err := svc.RankBatch([]string{"data"}, "bogus-alg", 0); !errors.Is(err, ErrInvalid) {
		t.Errorf("bad algorithm: err = %v, want ErrInvalid", err)
	}
	cold := New(analysis.Database(), nil) // registered nothing, no models
	if _, err := cold.RankBatch([]string{"data"}, "cori", 0); !errors.Is(err, ErrNoModels) {
		t.Errorf("no models: err = %v, want ErrNoModels", err)
	}
}

func TestRankBatchPerItemErrors(t *testing.T) {
	svc, _ := sampledFixture(t)
	items, err := svc.RankBatch([]string{"system data", "the and of", "market"}, "cori", 2)
	if err != nil {
		t.Fatal(err)
	}
	if items[0].Error != "" || len(items[0].Ranked) == 0 {
		t.Errorf("item 0 should rank: %+v", items[0])
	}
	if items[1].Error == "" || items[1].Ranked != nil {
		t.Errorf("stopword-only query should fail per-item: %+v", items[1])
	}
	if !strings.Contains(items[1].Error, "no index terms") {
		t.Errorf("item 1 error = %q, want a no-index-terms message", items[1].Error)
	}
	if items[2].Error != "" || len(items[2].Ranked) == 0 {
		t.Errorf("item 2 should rank despite its failed neighbor: %+v", items[2])
	}
}

// batchRankRequest and batchRankResponse are the POST /rank/batch wire
// shapes (the serving core's), as a client declares them.
type batchRankRequest struct {
	Queries []string `json:"queries"`
	Alg     string   `json:"alg,omitempty"`
	K       int      `json:"k,omitempty"`
}

type batchRankResponse struct {
	Results []BatchItem `json:"results"`
}

func TestHTTPRankBatch(t *testing.T) {
	svc, _ := sampledFixture(t)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	var out batchRankResponse
	resp := postJSON(t, ts.URL+"/rank/batch",
		batchRankRequest{Queries: []string{"system data", "the and of"}, Alg: "cori", K: 2}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}
	if len(out.Results) != 2 || len(out.Results[0].Ranked) == 0 || out.Results[1].Error == "" {
		t.Fatalf("batch response: %+v", out)
	}

	if resp := getJSON(t, ts.URL+"/rank/batch", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /rank/batch: status %d, want 405", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/rank/batch",
		batchRankRequest{Queries: make([]string, serving.MaxBatchQueries+1), Alg: "cori"}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversize batch: status %d, want 400", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/rank/batch",
		batchRankRequest{Queries: []string{"data"}, Alg: "bogus-alg"}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad algorithm: status %d, want 400", resp.StatusCode)
	}
}

// TestHTTPAdmissionOverload is the deterministic overload test: hold the
// gate's only slot, assert the next request sheds with 429 + Retry-After
// and bumps the capacity shed counter — then release and assert requests
// under the limit never shed.
func TestHTTPAdmissionOverload(t *testing.T) {
	svc, reg := sampledFixture(t)
	svc.SetAdmission(admission.Config{MaxInFlight: 1})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	shedCap := reg.Counter(`service_shed_total{reason="inflight"}`)

	// Saturate the gate directly — no races, no timing.
	ticket, ok := svc.gate.Load().Admit()
	if !ok {
		t.Fatal("idle gate refused the first admit")
	}
	resp := getJSON(t, ts.URL+"/rank?q=system+data&alg=cori", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated rank: status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("429 with Retry-After %q, want 1", got)
	}
	var batch batchRankResponse
	if resp := postJSON(t, ts.URL+"/rank/batch",
		batchRankRequest{Queries: []string{"data"}, Alg: "cori"}, nil); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated batch: status %d, want 429", resp.StatusCode)
	}
	if shedCap.Value() != 2 {
		t.Fatalf("shed counter = %d, want 2", shedCap.Value())
	}

	ticket.Release()
	var ranked []RankedDB
	if resp := getJSON(t, ts.URL+"/rank?q=system+data&alg=cori", &ranked); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release rank: status %d, want 200", resp.StatusCode)
	}
	if len(ranked) == 0 {
		t.Fatal("post-release rank returned no rows")
	}
	if resp := postJSON(t, ts.URL+"/rank/batch",
		batchRankRequest{Queries: []string{"data"}, Alg: "cori"}, &batch); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release batch: status %d, want 200", resp.StatusCode)
	}
	if shedCap.Value() != 2 {
		t.Errorf("requests under the limit shed: counter = %d, want 2", shedCap.Value())
	}
	if got := svc.gate.Load().InFlight(); got != 0 {
		t.Errorf("in-flight = %d after all requests completed, want 0", got)
	}
}
