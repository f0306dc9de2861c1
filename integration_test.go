package repro

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/index"
	"repro/internal/langmodel"
	"repro/internal/metrics"
	"repro/internal/netsearch"
	"repro/internal/selection"
	"repro/internal/starts"
	"repro/internal/store"
	"repro/internal/summarize"
)

// TestEndToEndPipeline drives the complete system the way a selection
// service would use it: generate corpora, index them, expose one over TCP,
// learn language models by sampling (local and remote), persist and reload
// a model, run database selection with learned models, and summarize a
// database.
func TestEndToEndPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline is not short")
	}

	// --- Build a small federation. ---
	dbs, err := experiments.Federation(4, 250, 42)
	if err != nil {
		t.Fatal(err)
	}

	// --- Expose database 0 over TCP; sample it remotely. ---
	srv, err := netsearch.Serve(dbs[0].Index, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := netsearch.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	models := make([]*langmodel.Model, len(dbs))
	for i, db := range dbs {
		var target core.Database = db.Index
		if i == 0 {
			target = client // remote path for one database
		}
		cfg := core.DefaultConfig(db.Actual, 80, uint64(1000+i))
		cfg.SnapshotEvery = 0
		res, err := core.Sample(target, cfg)
		if err != nil {
			t.Fatalf("sampling db %d: %v", i, err)
		}
		if res.Docs == 0 {
			t.Fatalf("db %d: nothing sampled", i)
		}
		models[i] = res.Learned.Normalize(db.Index.Analyzer())

		// Learned model should be a usable approximation.
		if ctf := metrics.CtfRatio(models[i], db.Actual); ctf < 0.4 {
			t.Errorf("db %d: ctf ratio %f too low for an 80-doc sample", i, ctf)
		}
	}

	// --- Persist and reload one learned model; must round-trip. ---
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("db0", models[0]); err != nil {
		t.Fatal(err)
	}
	reloaded, err := st.Get("db0")
	if err != nil {
		t.Fatal(err)
	}
	if !reloaded.Equal(models[0]) {
		t.Error("persisted model does not round-trip")
	}

	// --- Database selection with learned models routes topical queries. ---
	hits := 0
	for target := 0; target < len(dbs); target++ {
		pool := experiments.TopicalTerms(dbs[target], dbs, 4)
		if len(pool) < 2 {
			t.Fatalf("db %d has no topical vocabulary", target)
		}
		query := pool[:2]
		ranked := selection.Rank(selection.CORI{}, query, models)
		if ranked[0].DB == target {
			hits++
		}
	}
	if hits < 2 {
		t.Errorf("selection routed only %d/%d topical queries correctly", hits, len(dbs))
	}

	// --- Cooperative comparison: a liar distorts, sampling does not. ---
	bait := experiments.TopicalTerms(dbs[1], dbs, 3)
	liar := starts.Liar{Model: dbs[2].Actual, Bait: bait, Factor: 1000}
	lied, err := liar.Export()
	if err != nil {
		t.Fatal(err)
	}
	if lied.CTF(bait[0]) <= dbs[2].Actual.CTF(bait[0]) {
		t.Error("liar failed to inflate")
	}
	if models[2].CTF(bait[0]) > 0 {
		t.Error("sampled model contains the lie (it should not: bait is topical to db 1)")
	}

	// --- Summarize a database from its learned model. ---
	rows := summarize.Top(models[0], langmodel.ByAvgTF, 10, analysis.InqueryStoplist())
	if len(rows) == 0 {
		t.Error("summary empty")
	}
}

// TestDeterminismAcrossPipeline guards the repo-wide invariant: identical
// seeds produce identical learned models through the whole stack,
// including the TCP path.
func TestDeterminismAcrossPipeline(t *testing.T) {
	p := corpus.Scaled(corpus.CACM(), 0.1)
	docs := p.MustGenerate()
	ix := index.Build(docs, analysis.Database(), index.InQuery)
	actual := ix.LanguageModel()

	run := func() *langmodel.Model {
		srv, err := netsearch.Serve(ix, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		c, err := netsearch.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		res, err := core.Sample(c, core.DefaultConfig(actual, 60, 9))
		if err != nil {
			t.Fatal(err)
		}
		return res.Learned
	}
	if !run().Equal(run()) {
		t.Error("identical seeds produced different models over TCP")
	}
}
