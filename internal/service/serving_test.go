package service

// Tests for the compiled query-serving path: snapshot compilation and RCU
// invalidation, the epoch-keyed rank flights, equivalence with the
// map-based scorers, and a -race stress
// scenario of Rank racing resamples and registry churn.

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/langmodel"
	"repro/internal/selection"
	"repro/internal/telemetry"
)

// sampledFixture is fixture plus a sampling pass so every database serves
// a model, with a metrics registry installed.
func sampledFixture(t *testing.T) (*Service, *telemetry.Registry) {
	t.Helper()
	svc, dbs := fixture(t, nil)
	reg := telemetry.NewRegistry()
	svc.SetMetrics(reg)
	for _, db := range dbs {
		if _, err := svc.Sample(db.Name, SampleOptions{Docs: 50, Seed: 7}); err != nil {
			t.Fatal(err)
		}
	}
	return svc, reg
}

// TestRankAfterResampleNeverJoinsOldFlight: the epoch is in the flight key,
// so a rank that starts after a re-sample computes against the new model
// set even while an identical rank from the old epoch is still in flight.
func TestRankAfterResampleNeverJoinsOldFlight(t *testing.T) {
	svc, reg := sampledFixture(t)
	coalesced := reg.Counter(`service_rank_coalesced_total{scope="flight"}`)

	// Lead the old epoch's flight and leave it unfulfilled.
	oldKey := keyNow(svc, "system data", "cori", 0)
	old, leader := svc.flights.join(oldKey)
	if !leader {
		t.Fatal("test could not lead the old epoch's flight")
	}

	// A resample changes the served set: the epoch bumps.
	names := svc.Databases()
	if _, err := svc.Sample(names[0].Name, SampleOptions{Docs: 30, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	if svc.Epoch() == oldKey.Epoch {
		t.Fatal("Sample did not bump the epoch")
	}
	// Were the key epoch-free this rank would block on the flight above.
	if _, err := svc.Rank("system data", "cori", 0); err != nil {
		t.Fatalf("post-resample: %v", err)
	}

	// Unregister bumps too (its model left the set).
	epoch := svc.Epoch()
	if err := svc.Unregister(names[1].Name); err != nil {
		t.Fatal(err)
	}
	if svc.Epoch() == epoch {
		t.Fatal("Unregister did not bump the epoch")
	}
	out, err := svc.Rank("system data", "cori", 0)
	if err != nil {
		t.Fatalf("post-unregister: %v", err)
	}
	for _, r := range out {
		if r.Name == names[1].Name {
			t.Fatalf("unregistered database %s still ranked", r.Name)
		}
	}
	if coalesced.Value() != 0 {
		t.Fatalf("%d ranks joined a flight across an epoch change", coalesced.Value())
	}
	svc.flights.fulfill(oldKey, old, nil, nil)
	if got := svc.flights.inflight(); got != 0 {
		t.Fatalf("inflight = %d, want 0", got)
	}
}

// TestRankAllocations pins what one Service.Rank on a warm snapshot
// allocates: its term key, its flight and the ranking it hands out.
func TestRankAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the scratch pool drops entries under -race")
	}
	svc, _ := sampledFixture(t)
	if _, err := svc.Rank("system data language", "cori", 2); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := svc.Rank("system data language", "cori", 2); err != nil {
			t.Fatal(err)
		}
	})
	if want := 3.0; got != want {
		t.Fatalf("Rank allocates %.0f times per call, want %.0f", got, want)
	}
}

func TestCoalescerSingleFlight(t *testing.T) {
	co := newFlights(func() *telemetry.Registry { return nil })
	key := flightKey{Query: "q"}
	f, leader := co.join(key)
	if !leader {
		t.Fatal("first join not leader")
	}
	if co.inflight() != 1 {
		t.Fatalf("inflight = %d, want 1", co.inflight())
	}
	const waiters = 8
	var wg, joined sync.WaitGroup
	results := make([][]RankedDB, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		joined.Add(1)
		go func(i int) {
			defer wg.Done()
			wf, wl := co.join(key)
			joined.Done()
			if wl {
				t.Errorf("waiter %d became leader", i)
				co.fulfill(key, wf, nil, nil)
				return
			}
			results[i], _ = wf.wait()
		}(i)
	}
	// Followers must join before the leader fulfills: fulfill retires the
	// flight, so a straggler would (correctly) lead a fresh one.
	joined.Wait()
	want := []RankedDB{{Name: "db1", Score: 1}}
	co.fulfill(key, f, want, nil)
	wg.Wait()
	for i, r := range results {
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("waiter %d got %+v", i, r)
		}
	}
	if co.inflight() != 0 {
		t.Fatalf("inflight = %d after fulfill, want 0", co.inflight())
	}

	// Errors reach current followers only: the flight is gone from the map
	// at fulfill, so the next identical request starts fresh.
	key2 := flightKey{Query: "err"}
	f2, leader := co.join(key2)
	if !leader {
		t.Fatal("error-case join not leader")
	}
	co.fulfill(key2, f2, nil, errors.New("boom"))
	if _, leader := co.join(key2); !leader {
		t.Fatal("failed flight stayed joinable")
	}
}

// TestRankMatchesMapScorers is the service-level equivalence property: for
// every supported algorithm spelling, the compiled serving path returns
// exactly what the map-based selection.Rank over the service's sorted
// model set returns — same names, bit-identical scores.
func TestRankMatchesMapScorers(t *testing.T) {
	svc, _ := sampledFixture(t)

	svc.mu.RLock()
	names := make([]string, 0, len(svc.entries))
	for name, e := range svc.entries {
		if e.model != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	models := make([]*langmodel.Model, len(names))
	for i, name := range names {
		models[i] = svc.entries[name].model
	}
	svc.mu.RUnlock()

	algs := map[string]selection.Algorithm{
		"":              selection.CORI{},
		"cori":          selection.CORI{},
		"gloss-sum":     selection.Gloss{Estimator: selection.GlossSum},
		"gloss-sum@0.2": selection.Gloss{Estimator: selection.GlossSum, Threshold: 0.2},
		"gloss-ind":     selection.Gloss{Estimator: selection.GlossInd},
		"gloss-ind@0.2": selection.Gloss{Estimator: selection.GlossInd, Threshold: 0.2},
	}
	queries := []string{"system data language", "apple", "data", "zzz-unknown data"}
	for algName, alg := range algs {
		for _, q := range queries {
			got, err := svc.Rank(q, algName, 0)
			if err != nil {
				t.Fatalf("%q/%q: %v", algName, q, err)
			}
			terms := svc.analyzer.Tokens(q)
			ranked := selection.Rank(alg, terms, models)
			if len(got) != len(ranked) {
				t.Fatalf("%q/%q: %d rows, want %d", algName, q, len(got), len(ranked))
			}
			for i, r := range ranked {
				if got[i].Name != names[r.DB] ||
					math.Float64bits(got[i].Score) != math.Float64bits(r.Score) {
					t.Fatalf("%q/%q row %d: got %+v, want {%s %v}",
						algName, q, i, got[i], names[r.DB], r.Score)
				}
			}
		}
	}
}

func TestParseAlgorithm(t *testing.T) {
	cases := []struct {
		in   string
		want selection.Algorithm
		ok   bool
	}{
		{"", selection.CORI{}, true},
		{"cori", selection.CORI{}, true},
		{"gloss-sum", selection.Gloss{Estimator: selection.GlossSum}, true},
		{"gloss-ind", selection.Gloss{Estimator: selection.GlossInd}, true},
		{"gloss-sum@0.2", selection.Gloss{Estimator: selection.GlossSum, Threshold: 0.2}, true},
		{"gloss-ind@0.05", selection.Gloss{Estimator: selection.GlossInd, Threshold: 0.05}, true},
		{"gloss-sum@0", selection.Gloss{Estimator: selection.GlossSum}, true},
		{"cori@0.2", nil, false},
		{"gloss-sum@1.5", nil, false},
		{"gloss-sum@-0.1", nil, false},
		{"gloss-sum@x", nil, false},
		{"bogus", nil, false},
	}
	for _, c := range cases {
		got, err := parseAlgorithm(c.in)
		if c.ok != (err == nil) {
			t.Errorf("parseAlgorithm(%q) err = %v", c.in, err)
			continue
		}
		if !c.ok {
			if !errors.Is(err, ErrInvalid) {
				t.Errorf("parseAlgorithm(%q) error not ErrInvalid: %v", c.in, err)
			}
			continue
		}
		if got != c.want {
			t.Errorf("parseAlgorithm(%q) = %#v, want %#v", c.in, got, c.want)
		}
	}
}

func TestSnapshotCompileMetricsAndSingleCompile(t *testing.T) {
	svc, reg := sampledFixture(t)
	compiles := reg.Counter("service_snapshot_compiles_total")
	before := compiles.Value()

	// Many queries against an unchanged model set compile exactly once.
	for i := 0; i < 10; i++ {
		if _, err := svc.Rank(fmt.Sprintf("system data q%d", i), "cori", 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := compiles.Value() - before; got != 1 {
		t.Fatalf("10 ranks compiled %d snapshots, want 1", got)
	}
	if svc.snapshot().compiled.NumDBs() != 3 {
		t.Fatalf("snapshot has %d DBs", svc.snapshot().compiled.NumDBs())
	}
	if reg.Gauge("service_snapshot_dbs").Value() != 3 {
		t.Fatalf("service_snapshot_dbs gauge = %d", reg.Gauge("service_snapshot_dbs").Value())
	}
	if reg.Gauge("service_snapshot_terms").Value() <= 0 {
		t.Fatal("service_snapshot_terms gauge not set")
	}
}

// TestChaosRankRCUStress races Rank against resampling and registry churn.
// Under -race this is the proof that the serving path never reads a model
// set mid-mutation: readers score against immutable snapshots while
// writers swap generations underneath them.
func TestChaosRankRCUStress(t *testing.T) {
	svc, dbs := fixture(t, nil)
	svc.SetMetrics(telemetry.NewRegistry())
	for _, db := range dbs {
		if _, err := svc.Sample(db.Name, SampleOptions{Docs: 40, Seed: 3}); err != nil {
			t.Fatal(err)
		}
	}

	const rounds = 60
	var wg sync.WaitGroup
	// Readers: continuous ranking across all algorithm families.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			algs := []string{"cori", "gloss-sum", "gloss-ind@0.1"}
			for i := 0; i < rounds; i++ {
				out, err := svc.Rank("system data language", algs[(i+r)%len(algs)], 2)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if len(out) == 0 {
					t.Errorf("reader %d: empty ranking", r)
					return
				}
			}
		}(r)
	}
	// Writer: resamples bump the epoch continuously.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds/4; i++ {
			if _, err := svc.Sample(dbs[i%len(dbs)].Name, SampleOptions{Docs: 20, Seed: uint64(i + 13)}); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	// Churner: a database leaves and rejoins the registry.
	wg.Add(1)
	go func() {
		defer wg.Done()
		name, ix := "churn", appleIndex()
		for i := 0; i < rounds/4; i++ {
			if err := svc.RegisterLocal(name, ix); err != nil {
				t.Errorf("churn register: %v", err)
				return
			}
			if _, err := svc.Sample(name, SampleOptions{Docs: 4, InitialTerm: "apple"}); err != nil {
				t.Errorf("churn sample: %v", err)
				return
			}
			if err := svc.Unregister(name); err != nil {
				t.Errorf("churn unregister: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	// After the dust settles the snapshot reflects the final model set.
	final := svc.snapshot()
	if final.epoch != svc.Epoch() {
		t.Fatalf("final snapshot epoch %d != generation %d", final.epoch, svc.Epoch())
	}
	if got := final.compiled.NumDBs(); got != len(dbs) {
		t.Fatalf("final snapshot has %d DBs, want %d", got, len(dbs))
	}
}
