package netsearch

import (
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/faulty"
	"repro/internal/index"
	"repro/internal/telemetry"
)

// TestChaosTelemetryGoldenFaultCounters pins the exact telemetry a
// fault-injected sampling run produces. The whole pipeline is seeded —
// the corpus (Seed 4), the sampler (seed 77), the fault stream (Seed 11,
// 20% write faults), the backoff jitter (Seed 2) — so the retry/redial/
// fault counters are not merely "nonzero": they replay to the same values
// on every platform. A change here means the client's failure handling
// changed, which is exactly what this test exists to surface.
func TestChaosTelemetryGoldenFaultCounters(t *testing.T) {
	profile := corpus.Profile{
		Name: "chaos", Docs: 150, SharedVocabSize: 500, SharedProb: 0.5,
		Topics:   []corpus.TopicSpec{{Name: "t", VocabSize: 2000, Weight: 1}},
		DocLenMu: 3.8, DocLenSigma: 0.4, MinDocLen: 10,
		ZipfS: 1.35, ZipfV: 2, Seed: 4,
	}
	ix := index.Build(profile.MustGenerate(), analysis.Database(), index.InQuery)
	actual := ix.LanguageModel()

	srv, err := Serve(ix, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reg := telemetry.NewRegistry()
	client, err := DialWith(srv.Addr(), Options{
		Timeout:  2 * time.Second,
		Retry:    fastRetry(8),
		DialFunc: faulty.Dialer(faulty.ConnOptions{Seed: 11, WriteRate: 0.2}),
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if _, err := core.Sample(client, core.DefaultConfig(actual, 50, 77)); err != nil {
		t.Fatalf("sampling through injected faults failed: %v", err)
	}

	stats := client.Stats()
	snap := reg.Snapshot()

	// The registry's counters must agree exactly with the client's own
	// bookkeeping — the two are maintained at the same call sites, and a
	// divergence means an instrumentation path was missed.
	mirror := map[string]int{
		"netsearch_faults_total":  stats.Faults,
		"netsearch_redials_total": stats.Redials,
		"netsearch_retries_total": stats.Retries,
	}
	for name, want := range mirror {
		if got := snap.Counters[name]; got != int64(want) {
			t.Errorf("%s = %d, telemetry disagrees with ClientStats %d", name, got, want)
		}
	}

	// Golden values for this seed set. Regenerate by logging the snapshot
	// if the sampler's query schedule or the retry policy changes. They fell
	// from 30 (31 dials) when a probe query's fetches became one write
	// (Client.FetchAll): the fault stream draws once per Write, and the same
	// 50 documents now cross in a write per query instead of one each, so
	// there are fewer draws to fail. The failure handling did not change.
	golden := map[string]int64{
		"netsearch_faults_total":          20,
		"netsearch_retries_total":         20,
		"netsearch_redials_total":         20,
		"netsearch_conns_discarded_total": 20,
		"netsearch_backoff_sleeps_total":  20,
		"netsearch_dials_total":           21, // initial dial + one per redial
		"netsearch_dial_errors_total":     0,
		"netsearch_op_failures_total":     0, // every op succeeded within 8 attempts
	}
	for name, want := range golden {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}

	// Latency histograms saw every operation and every backoff sleep.
	if ops := snap.Histograms[`netsearch_op_seconds{op="search"}`]; ops.Count == 0 {
		t.Error("no search op latency recorded")
	}
	if sleeps := snap.Histograms["netsearch_backoff_seconds"]; sleeps.Count != golden["netsearch_backoff_sleeps_total"] {
		t.Errorf("backoff histogram count = %d, want %d", sleeps.Count, golden["netsearch_backoff_sleeps_total"])
	}
}
