package service

// Chaos suite for the service layer: concurrent sampling on one entry,
// circuit-breaker trip/recover, and the acceptance scenario — SampleAll
// through 20% injected transport faults with a mid-run server restart.
// Run with `make chaos` (always under -race in CI).

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/faulty"
	"repro/internal/index"
	"repro/internal/netsearch"
	"repro/internal/telemetry"
)

func appleIndex() *index.Index {
	return index.Build([]corpus.Document{
		{ID: 0, Text: "apple pie with baked apple slices"},
		{ID: 1, Text: "apple orchards and cider presses"},
		{ID: 2, Text: "pressing cider from fresh apple harvests"},
		{ID: 3, Text: "baking bread with sourdough starters"},
	}, analysis.Raw(), index.InQuery)
}

func TestChaosConcurrentSampleSingleEntry(t *testing.T) {
	// Four goroutines hammer the same entry, half of them extending. The
	// per-entry in-flight guard serializes the runs; without it, lastRun
	// and model writes interleave and a later Extend resumes from a
	// mismatched pair (and the race detector lights up).
	svc, dbs := fixture(t, nil)
	name := dbs[0].Name
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := svc.Sample(name, SampleOptions{Docs: 30, Seed: uint64(i + 1), Extend: i%2 == 1})
			if err != nil {
				t.Errorf("concurrent sample %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	svc.mu.RLock()
	e := svc.entries[name]
	model, lastRun, stats := e.model, e.lastRun, e.stats
	svc.mu.RUnlock()
	if model == nil || lastRun == nil {
		t.Fatal("no model after concurrent sampling")
	}
	// Whichever run finished last, its three writes must be consistent.
	if stats.Terms != model.VocabSize() {
		t.Errorf("stats.Terms = %d, model has %d terms", stats.Terms, model.VocabSize())
	}
	if stats.SampledDocs != lastRun.Docs {
		t.Errorf("stats.SampledDocs = %d, lastRun.Docs = %d", stats.SampledDocs, lastRun.Docs)
	}
}

func TestChaosCircuitBreakerTripsAndRecovers(t *testing.T) {
	flaky := faulty.WrapDB(appleIndex(), 1, 1.0) // every call fails
	svc := New(analysis.Database(), nil)
	if err := svc.RegisterLocal("flaky", flaky); err != nil {
		t.Fatal(err)
	}
	opts := SampleOptions{Docs: 4, InitialTerm: "apple"}

	for i := 0; i < DefaultTripThreshold; i++ {
		if _, err := svc.Sample("flaky", opts); err == nil {
			t.Fatalf("sample %d against a fully broken database succeeded", i)
		}
	}
	st := svc.Databases()[0]
	if !st.CircuitOpen || st.ConsecutiveFailures != DefaultTripThreshold {
		t.Fatalf("breaker did not trip: %+v", st)
	}

	// SampleAll skips the tripped database without touching it.
	callsBefore := flaky.Calls()
	statuses, errs := svc.SampleAll(opts, 2)
	if !errors.Is(errs["flaky"], ErrCircuitOpen) {
		t.Errorf("SampleAll error = %v, want ErrCircuitOpen", errs["flaky"])
	}
	if !statuses["flaky"].CircuitOpen {
		t.Errorf("SampleAll status lost the open circuit: %+v", statuses["flaky"])
	}
	if flaky.Calls() != callsBefore {
		t.Errorf("SampleAll hit the tripped database (%d new calls)", flaky.Calls()-callsBefore)
	}

	// Heal the database; a direct Sample is the half-open probe.
	flaky.SetRate(0)
	st, err := svc.Sample("flaky", opts)
	if err != nil {
		t.Fatalf("probe after healing failed: %v", err)
	}
	if st.CircuitOpen || st.ConsecutiveFailures != 0 || !st.HasModel {
		t.Errorf("breaker did not reset on success: %+v", st)
	}
}

// TestChaosSampleAllSurvivesFaultsAndRestart is the acceptance scenario:
// three healthy local databases, one remote database reached through a
// transport that corrupts 20% of writes and whose server restarts
// mid-run, and one database that is simply down. SampleAll must finish
// every healthy database, report each failure under its own name, and a
// subsequent direct Sample of the restarted database must succeed without
// a process restart.
func TestChaosSampleAllSurvivesFaultsAndRestart(t *testing.T) {
	dbs, err := experiments.Federation(3, 200, 31)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(analysis.Database(), nil)
	defer svc.Close()
	svc.SetMetrics(telemetry.NewRegistry())
	for _, db := range dbs {
		if err := svc.RegisterLocal(db.Name, db.Index); err != nil {
			t.Fatal(err)
		}
	}

	// The remote database. Its server restarts after the 20th call.
	p := corpus.Profile{
		Name: "remote", Docs: 150, SharedVocabSize: 600, SharedProb: 0.5,
		Topics:   []corpus.TopicSpec{{Name: "t", VocabSize: 2500, Weight: 1}},
		DocLenMu: 4.2, DocLenSigma: 0.5, MinDocLen: 12,
		ZipfS: 1.35, ZipfV: 2, Seed: 8,
	}
	remoteIx := index.Build(p.MustGenerate(), analysis.Database(), index.InQuery)
	remote := faulty.WrapDB(remoteIx, 1, 0) // rate 0: used for its call hook
	restartAt := make(chan struct{})
	var once sync.Once
	remote.SetHook(func(op string, call int) {
		if call == 20 {
			once.Do(func() { close(restartAt) })
		}
	})
	srv, err := netsearch.Serve(remote, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	restarted := make(chan *netsearch.Server, 1)
	go func() {
		<-restartAt
		srv.Close()
		var srv2 *netsearch.Server
		for i := 0; i < 100; i++ {
			if srv2, err = netsearch.Serve(remote, addr); err == nil {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		restarted <- srv2 // nil if the port never came back
	}()

	svc.SetDialOptions(netsearch.Options{
		Timeout: 2 * time.Second,
		Retry: netsearch.RetryPolicy{
			Attempts:  10,
			BaseDelay: 2 * time.Millisecond,
			MaxDelay:  20 * time.Millisecond,
			Seed:      3,
		},
		DialFunc: faulty.Dialer(faulty.ConnOptions{Seed: 17, WriteRate: 0.2}),
	})
	if err := svc.Register("remote", addr); err != nil {
		t.Fatal(err)
	}
	if err := svc.Register("down", "127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}

	statuses, errs := svc.SampleAll(SampleOptions{Docs: 40, Seed: 5}, 4)

	// Every healthy local database completed.
	for _, db := range dbs {
		if st := statuses[db.Name]; !st.HasModel || st.SampledDocs == 0 {
			t.Errorf("healthy database %s not sampled: %+v", db.Name, st)
		}
		if errs[db.Name] != nil {
			t.Errorf("healthy database %s reported error: %v", db.Name, errs[db.Name])
		}
	}
	// The dead database is reported under its own name, not fatal.
	if errs["down"] == nil {
		t.Error("unreachable database missing from the error map")
	}
	if statuses["down"].LastError == "" {
		t.Error("unreachable database's status lost its error")
	}

	srv2 := <-restarted
	if srv2 == nil {
		t.Fatal("server never rebound its address")
	}
	defer srv2.Close()

	// Whether or not the restart window killed the remote run, a direct
	// Sample afterwards must succeed on the same service instance.
	st, err := svc.Sample("remote", SampleOptions{Docs: 30, Seed: 6})
	if err != nil {
		t.Fatalf("sample after server restart: %v (errs during SampleAll: %v)", err, errs["remote"])
	}
	if !st.HasModel || st.CircuitOpen || st.ConsecutiveFailures != 0 {
		t.Errorf("post-restart sample left unhealthy status: %+v", st)
	}

	// And the serving path must come up correctly on the post-chaos model
	// set: the first Rank compiles a snapshot, an identical Rank computes
	// again, and both give the same answer.
	first, err := svc.Rank("the data system", "cori", 3)
	if err != nil {
		t.Fatalf("rank after chaos: %v", err)
	}
	second, err := svc.Rank("the data system", "cori", 3)
	if err != nil {
		t.Fatalf("second rank after chaos: %v", err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("post-chaos ranks differ:\n%+v\n%+v", first, second)
	}
}
