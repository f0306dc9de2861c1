package service

import (
	"errors"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/index"
	"repro/internal/netsearch"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// fixture builds a federation and a service with every database
// registered locally.
func fixture(t *testing.T, st *store.Store) (*Service, []*experiments.FederationDB) {
	t.Helper()
	dbs, err := experiments.Federation(3, 200, 31)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(analysis.Database(), st)
	for _, db := range dbs {
		if err := svc.RegisterLocal(db.Name, db.Index); err != nil {
			t.Fatal(err)
		}
	}
	return svc, dbs
}

func TestRegisterAndList(t *testing.T) {
	svc, dbs := fixture(t, nil)
	statuses := svc.Databases()
	if len(statuses) != len(dbs) {
		t.Fatalf("got %d databases, want %d", len(statuses), len(dbs))
	}
	for _, st := range statuses {
		if st.HasModel {
			t.Errorf("%s has a model before sampling", st.Name)
		}
	}
}

func TestRegisterValidation(t *testing.T) {
	svc := New(analysis.Database(), nil)
	if err := svc.Register("", "addr"); err == nil {
		t.Error("empty name accepted")
	}
	if err := svc.RegisterLocal("x", nil); err == nil {
		t.Error("nil database accepted")
	}
	if err := svc.Register("dup", "a:1"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Register("dup", "a:2"); err == nil {
		t.Error("duplicate registration accepted")
	}
}

func TestSampleAndRank(t *testing.T) {
	svc, dbs := fixture(t, nil)
	for _, db := range dbs {
		st, err := svc.Sample(db.Name, SampleOptions{Docs: 60, Seed: 5})
		if err != nil {
			t.Fatalf("sample %s: %v", db.Name, err)
		}
		if !st.HasModel || st.SampledDocs == 0 || st.Terms == 0 {
			t.Errorf("%s status after sampling: %+v", db.Name, st)
		}
	}
	// Topical query for db 0 must rank db 0 first.
	terms := experiments.TopicalTerms(dbs[0], dbs, 4)
	query := terms[0] + " " + terms[1]
	ranked, err := svc.Rank(query, "cori", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 3 {
		t.Fatalf("ranked %d databases", len(ranked))
	}
	if ranked[0].Name != dbs[0].Name {
		t.Errorf("query %q ranked %s first, want %s", query, ranked[0].Name, dbs[0].Name)
	}
	// k limiting.
	top1, err := svc.Rank(query, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(top1) != 1 {
		t.Errorf("k=1 returned %d rows", len(top1))
	}
}

func TestRankErrors(t *testing.T) {
	svc, dbs := fixture(t, nil)
	if _, err := svc.Rank("anything", "cori", 0); err == nil {
		t.Error("rank before any sampling should fail")
	}
	if _, err := svc.Sample(dbs[0].Name, SampleOptions{Docs: 30}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Rank("query", "bogus-alg", 0); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := svc.Rank("the and of", "cori", 0); err == nil {
		t.Error("stopword-only query accepted")
	}
}

func TestSampleUnknownDatabase(t *testing.T) {
	svc, _ := fixture(t, nil)
	if _, err := svc.Sample("ghost", SampleOptions{}); !errors.Is(err, ErrUnknownDatabase) {
		t.Errorf("got %v, want ErrUnknownDatabase", err)
	}
}

func TestSummary(t *testing.T) {
	svc, dbs := fixture(t, nil)
	if _, err := svc.Summary(dbs[0].Name, "avg-tf", 5); err == nil {
		t.Error("summary before sampling should fail")
	}
	if _, err := svc.Sample(dbs[0].Name, SampleOptions{Docs: 50}); err != nil {
		t.Fatal(err)
	}
	rows, err := svc.Summary(dbs[0].Name, "df", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || len(rows) > 5 {
		t.Errorf("summary rows = %d", len(rows))
	}
	if _, err := svc.Summary(dbs[0].Name, "bogus", 5); err == nil {
		t.Error("unknown metric accepted")
	}
	if _, err := svc.Summary("ghost", "df", 5); !errors.Is(err, ErrUnknownDatabase) {
		t.Errorf("got %v, want ErrUnknownDatabase", err)
	}
}

// TestPersistenceAcrossRestart: the model store is the service's only
// durable state. A fresh service over the same store re-registers every
// database with its stored model, compiles once on its first rank, and
// ranks bit-identically to the service that learned the models.
func TestPersistenceAcrossRestart(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "models"))
	if err != nil {
		t.Fatal(err)
	}
	svc, dbs := fixture(t, st)
	for _, db := range dbs {
		if _, err := svc.Sample(db.Name, SampleOptions{Docs: 50, Seed: 3}); err != nil {
			t.Fatal(err)
		}
	}

	// "Restart": a fresh service over the same store. Registering the same
	// database names picks up the persisted models without re-sampling.
	svc2 := New(analysis.Database(), st)
	reg2 := telemetry.NewRegistry()
	svc2.SetMetrics(reg2)
	for _, db := range dbs {
		if err := svc2.RegisterLocal(db.Name, db.Index); err != nil {
			t.Fatal(err)
		}
	}
	for _, status := range svc2.Databases() {
		if !status.HasModel {
			t.Fatalf("persisted model not loaded: %+v", status)
		}
	}
	for _, query := range []string{"stock market data", strings.Join(experiments.TopicalTerms(dbs[0], dbs, 2), " ")} {
		for _, alg := range []string{"cori", "gloss-sum", "gloss-ind"} {
			want, err := svc.Rank(query, alg, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := svc2.Rank(query, alg, 0)
			if err != nil {
				t.Fatalf("rank with persisted models failed: %v", err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s %q: %d results after restart, %d before", alg, query, len(got), len(want))
			}
			for i := range want {
				if got[i].Name != want[i].Name || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
					t.Fatalf("%s %q: rank %d is %+v after restart, %+v before", alg, query, i, got[i], want[i])
				}
			}
		}
	}
	if full, incr := compileCounters(reg2); full != 1 || incr != 0 {
		t.Errorf("restarted service compiled full=%d incremental=%d, want one full compile", full, incr)
	}
}

func TestUnregister(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "models"))
	if err != nil {
		t.Fatal(err)
	}
	svc, dbs := fixture(t, st)
	if _, err := svc.Sample(dbs[0].Name, SampleOptions{Docs: 30}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Unregister(dbs[0].Name); err != nil {
		t.Fatal(err)
	}
	if len(svc.Databases()) != len(dbs)-1 {
		t.Error("database still listed after unregister")
	}
	// Persisted model deleted too.
	if _, err := st.Get(dbs[0].Name); !errors.Is(err, store.ErrNotFound) {
		t.Error("persisted model survived unregister")
	}
	if err := svc.Unregister("ghost"); !errors.Is(err, ErrUnknownDatabase) {
		t.Errorf("got %v, want ErrUnknownDatabase", err)
	}
}

func TestSampleRemoteDatabase(t *testing.T) {
	// A remote database is reached lazily through netsearch.
	p := corpus.Profile{
		Name: "remote", Docs: 150, SharedVocabSize: 600, SharedProb: 0.5,
		Topics:   []corpus.TopicSpec{{Name: "t", VocabSize: 2500, Weight: 1}},
		DocLenMu: 4.2, DocLenSigma: 0.5, MinDocLen: 12,
		ZipfS: 1.35, ZipfV: 2, Seed: 8,
	}
	ix := index.Build(p.MustGenerate(), analysis.Database(), index.InQuery)
	srv, err := netsearch.Serve(ix, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	svc := New(analysis.Database(), nil)
	defer svc.Close()
	var mu sync.Mutex
	var conns []*trackedConn
	svc.SetDialOptions(netsearch.Options{DialFunc: func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		tc := &trackedConn{Conn: conn}
		mu.Lock()
		conns = append(conns, tc)
		mu.Unlock()
		return tc, nil
	}})
	if err := svc.Register("remote-db", srv.Addr()); err != nil {
		t.Fatal(err)
	}
	st, err := svc.Sample("remote-db", SampleOptions{Docs: 40, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.SampledDocs == 0 || !st.HasModel {
		t.Errorf("remote sampling produced %+v", st)
	}

	// Unregister closes every connection the database's client dialed.
	if err := svc.Unregister("remote-db"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(conns) == 0 {
		t.Fatal("sampling a remote database dialed no connection")
	}
	for i, c := range conns {
		if !c.closed.Load() {
			t.Errorf("connection %d of %d is still open after Unregister", i+1, len(conns))
		}
	}
}

// trackedConn records whether its owner closed it.
type trackedConn struct {
	net.Conn
	closed atomic.Bool
}

func (c *trackedConn) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

func TestSampleConnectFailureRecorded(t *testing.T) {
	svc := New(analysis.Database(), nil)
	if err := svc.Register("down", "127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Sample("down", SampleOptions{}); err == nil {
		t.Fatal("sampling an unreachable database succeeded")
	}
	statuses := svc.Databases()
	if statuses[0].LastError == "" {
		t.Error("connection failure not recorded in status")
	}
}

func TestSampleRemoteRegisteredWhileDown(t *testing.T) {
	// The client built at registration dials on each sample until the peer
	// answers: no re-registration is needed once it comes up.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	svc := New(analysis.Database(), nil)
	defer svc.Close()
	if err := svc.Register("late", addr); err != nil {
		t.Fatal(err)
	}
	opts := SampleOptions{Docs: 4, InitialTerm: "apple"}
	if _, err := svc.Sample("late", opts); err == nil {
		t.Fatal("sampling a database whose server is down succeeded")
	}
	var srv *netsearch.Server
	for i := 0; i < 100 && srv == nil; i++ {
		if srv, err = netsearch.Serve(appleIndex(), addr); err != nil {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if srv == nil {
		t.Fatalf("could not bind %s: %v", addr, err)
	}
	defer srv.Close()
	st, err := svc.Sample("late", opts)
	if err != nil {
		t.Fatalf("sample once the server is up: %v", err)
	}
	if !st.HasModel || st.ConsecutiveFailures != 0 {
		t.Errorf("status after the server came up = %+v", st)
	}
	// Close is terminal: the database's client is never redialed.
	svc.Close()
	if _, err := svc.Sample("late", opts); err == nil || !strings.Contains(err.Error(), "client is closed") {
		t.Errorf("sample after Close = %v, want a closed-client error", err)
	}
}

func TestSampleAll(t *testing.T) {
	svc, dbs := fixture(t, nil)
	statuses, errs := svc.SampleAll(SampleOptions{Docs: 40, Seed: 3}, 2)
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if len(statuses) != len(dbs) {
		t.Fatalf("got %d statuses", len(statuses))
	}
	for name, st := range statuses {
		if !st.HasModel || st.SampledDocs == 0 {
			t.Errorf("%s not sampled: %+v", name, st)
		}
	}
	// Ranking works immediately afterward.
	terms := experiments.TopicalTerms(dbs[0], dbs, 2)
	if _, err := svc.Rank(terms[0]+" "+terms[1], "cori", 0); err != nil {
		t.Errorf("rank after SampleAll: %v", err)
	}
}

func TestSampleAllPartialFailure(t *testing.T) {
	svc, dbs := fixture(t, nil)
	if err := svc.Register("down", "127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	statuses, errs := svc.SampleAll(SampleOptions{Docs: 30}, 3)
	if errs["down"] == nil {
		t.Fatal("expected an error from the unreachable database")
	}
	if len(errs) != 1 {
		t.Errorf("healthy databases reported errors: %v", errs)
	}
	// The healthy databases were still sampled.
	for _, db := range dbs {
		if st := statuses[db.Name]; !st.HasModel {
			t.Errorf("%s skipped because another database failed", db.Name)
		}
	}
	if statuses["down"].HasModel {
		t.Error("unreachable database claims a model")
	}
}

func TestSampleExtendGrowsSample(t *testing.T) {
	svc, dbs := fixture(t, nil)
	first, err := svc.Sample(dbs[0].Name, SampleOptions{Docs: 50, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	second, err := svc.Sample(dbs[0].Name, SampleOptions{Docs: 50, Seed: 10, Extend: true})
	if err != nil {
		t.Fatal(err)
	}
	if second.SampledDocs < first.SampledDocs+40 {
		t.Errorf("extend grew sample only %d -> %d", first.SampledDocs, second.SampledDocs)
	}
	if second.Terms <= first.Terms {
		t.Errorf("extend did not grow vocabulary: %d -> %d", first.Terms, second.Terms)
	}
	// Extend without a previous run falls back to a fresh sample.
	fresh, err := svc.Sample(dbs[1].Name, SampleOptions{Docs: 40, Extend: true})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.SampledDocs == 0 {
		t.Error("extend-without-prev sampled nothing")
	}
}

// TestExtendAfterRestartRefuses: a database whose model was loaded from the
// store has no run in this process to continue. Extend must say so
// (ErrInvalid, a 400 over HTTP) and leave the stored model alone, not
// replace it with a fresh, smaller sample.
func TestExtendAfterRestartRefuses(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "models")
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svcA, dbs := fixture(t, st)
	name := dbs[0].Name
	if _, err := svcA.Sample(name, SampleOptions{Docs: 60, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	before, err := st.Get(name)
	if err != nil {
		t.Fatal(err)
	}

	svcB, _ := fixture(t, st)
	_, err = svcB.Sample(name, SampleOptions{Docs: 20, Seed: 3, Extend: true})
	if !errors.Is(err, ErrInvalid) || !strings.Contains(err.Error(), fmt.Sprintf("%d docs", before.Docs())) {
		t.Fatalf("extend after restart: err = %v, want ErrInvalid naming %d docs", err, before.Docs())
	}
	after, err := st.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	if after.Docs() < 60 || after.Fingerprint() != before.Fingerprint() {
		t.Fatalf("stored model went from %d docs (%x) to %d (%x)",
			before.Docs(), before.Fingerprint(), after.Docs(), after.Fingerprint())
	}
	if got := svcB.entries[name].model.Fingerprint(); got != before.Fingerprint() {
		t.Errorf("served model changed to %x", got)
	}
}

// TestExtendIsNotOneLongerRun: Extend resumes with the RNG restarted from
// the seed and stops on whole queries, so Sample(N) then Extend(M) learns
// a different model than Sample(N+M) — and never fewer than N+M documents.
func TestExtendIsNotOneLongerRun(t *testing.T) {
	svc, dbs := fixture(t, nil)
	name := dbs[0].Name
	if _, err := svc.Sample(name, SampleOptions{Docs: 40, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	extended, err := svc.Sample(name, SampleOptions{Docs: 20, Seed: 3, Extend: true})
	if err != nil {
		t.Fatal(err)
	}
	once, _ := fixture(t, nil)
	if _, err := once.Sample(name, SampleOptions{Docs: 60, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if extended.SampledDocs < 60 {
		t.Errorf("40 + 20 sampled %d docs, want >= 60", extended.SampledDocs)
	}
	a, b := svc.entries[name].model.Fingerprint(), once.entries[name].model.Fingerprint()
	if a == b {
		t.Errorf("40 + 20 and 60 in one run learned the same model %x", a)
	}
}

// TestLearnedModelIndependentOfProcess: with no InitialTerm, a database's
// learned model depends only on the database and the options — not on
// what else the process serves or learned before, how SampleAll schedules
// it, what a restart warm-loads, or which side of the wire the sampler
// runs on. Every variant runs where a union of served models would have
// supplied the first probe term.
func TestLearnedModelIndependentOfProcess(t *testing.T) {
	opts := SampleOptions{Docs: 40, Seed: 11}
	_, dbs := fixture(t, nil)
	learned := func(svc *Service, name string) uint64 {
		t.Helper()
		svc.mu.RLock()
		defer svc.mu.RUnlock()
		m := svc.entries[name].model
		if m == nil {
			t.Fatalf("%s has no model", name)
		}
		return m.Fingerprint()
	}
	sample := func(svc *Service, name string) {
		t.Helper()
		if _, err := svc.Sample(name, opts); err != nil {
			t.Fatal(err)
		}
	}
	variants := []struct {
		name  string
		model func(db int) uint64
	}{
		{"sampled after every other database", func(db int) uint64 {
			svc, _ := fixture(t, nil)
			for i, other := range dbs {
				if i != db {
					sample(svc, other.Name)
				}
			}
			sample(svc, dbs[db].Name)
			return learned(svc, dbs[db].Name)
		}},
		{"re-sampled in a process holding only this database", func(db int) uint64 {
			svc := New(analysis.Database(), nil)
			if err := svc.RegisterLocal(dbs[db].Name, dbs[db].Index); err != nil {
				t.Fatal(err)
			}
			sample(svc, dbs[db].Name)
			sample(svc, dbs[db].Name)
			return learned(svc, dbs[db].Name)
		}},
		{"SampleAll at parallelism 4", func(db int) uint64 {
			svc, _ := fixture(t, nil)
			if _, errs := svc.SampleAll(opts, 4); errs != nil {
				t.Fatal(errs)
			}
			return learned(svc, dbs[db].Name)
		}},
		{"after a restart that warm-loads the others", func(db int) uint64 {
			st, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			before, _ := fixture(t, st)
			for i, other := range dbs {
				if i != db {
					sample(before, other.Name)
				}
			}
			after, _ := fixture(t, st)
			sample(after, dbs[db].Name)
			return learned(after, dbs[db].Name)
		}},
		{"core.Sample in process, then Normalize", func(db int) uint64 {
			res, err := core.Sample(dbs[db].Index, core.Config{
				DocsPerQuery: 4, Selector: core.RandomLLM{}, Stop: core.StopAfterDocs(opts.Docs),
				Analyzer: analysis.Raw(), Seed: opts.Seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res.Learned.Normalize(analysis.Database()).Fingerprint()
		}},
		{"over netsearch, after the others were learned locally", func(db int) uint64 {
			srv, err := netsearch.Serve(dbs[db].Index, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			svc := New(analysis.Database(), nil)
			defer svc.Close()
			for i, other := range dbs {
				if i != db {
					if err := svc.RegisterLocal(other.Name, other.Index); err != nil {
						t.Fatal(err)
					}
					sample(svc, other.Name)
				}
			}
			if err := svc.Register(dbs[db].Name, srv.Addr()); err != nil {
				t.Fatal(err)
			}
			sample(svc, dbs[db].Name)
			return learned(svc, dbs[db].Name)
		}},
	}
	// Pinned: the built-in seed words and their order decide every
	// default-path model, so changing either moves these.
	fresh := []uint64{0xd5030c58c5c3efbd, 0xdcd2dcc07dd9de2f, 0xdd70ecd1506cee7a}
	for db := range dbs {
		svc, _ := fixture(t, nil)
		sample(svc, dbs[db].Name)
		want := learned(svc, dbs[db].Name)
		if want != fresh[db] {
			t.Errorf("%s sampled first learned %x, want %x", dbs[db].Name, want, fresh[db])
		}
		for _, v := range variants {
			if got := v.model(db); got != want {
				t.Errorf("%s, %s: learned %x, sampled first in a full process %x", dbs[db].Name, v.name, got, want)
			}
		}
	}
}
