package service

// Tests for the compiled query-serving path: snapshot compilation and RCU
// invalidation, the epoch-keyed result cache (hits, misses, single-flight,
// LRU bounds), equivalence with the map-based scorers, and a -race stress
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
	"repro/internal/serving"
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

func TestRankCacheHitAndMissCounters(t *testing.T) {
	svc, reg := sampledFixture(t)
	hits := reg.Counter("service_select_cache_hits_total")
	misses := reg.Counter("service_select_cache_misses_total")

	first, status, err := svc.rankCached("system data language", "cori", 0)
	if err != nil {
		t.Fatal(err)
	}
	if status != "miss" || misses.Value() != 1 || hits.Value() != 0 {
		t.Fatalf("first rank: status=%q hits=%d misses=%d", status, hits.Value(), misses.Value())
	}
	second, status, err := svc.rankCached("system data language", "cori", 0)
	if err != nil {
		t.Fatal(err)
	}
	if status != "hit" || hits.Value() != 1 || misses.Value() != 1 {
		t.Fatalf("second rank: status=%q hits=%d misses=%d", status, hits.Value(), misses.Value())
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cache hit returned different result:\n%+v\n%+v", first, second)
	}
	// Different k, algorithm, or term sequence are distinct keys.
	for _, q := range []struct{ query, alg string; k int }{
		{"system data language", "cori", 2},
		{"system data language", "gloss-sum", 0},
		{"system data", "cori", 0},
	} {
		if _, status, err = svc.rankCached(q.query, q.alg, q.k); err != nil || status != "miss" {
			t.Fatalf("variant %+v: status=%q err=%v", q, status, err)
		}
	}
	// The cached slice must not alias the caller's: mutating a returned
	// ranking cannot corrupt later hits.
	out, _, _ := svc.rankCached("system data language", "cori", 0)
	out[0].Name = "corrupted"
	again, _, _ := svc.rankCached("system data language", "cori", 0)
	if again[0].Name == "corrupted" {
		t.Fatal("caller mutation reached the cache")
	}
}

func TestRankCacheInvalidatedByEpoch(t *testing.T) {
	svc, reg := sampledFixture(t)
	misses := reg.Counter("service_select_cache_misses_total")

	if _, status, err := svc.rankCached("system data", "cori", 0); err != nil || status != "miss" {
		t.Fatalf("first: %q %v", status, err)
	}
	epoch := svc.Epoch()

	// A resample changes the served set: epoch bumps, same query misses.
	names := svc.Databases()
	if _, err := svc.Sample(names[0].Name, SampleOptions{Docs: 30, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	if svc.Epoch() == epoch {
		t.Fatal("Sample did not bump the epoch")
	}
	if _, status, err := svc.rankCached("system data", "cori", 0); err != nil || status != "miss" {
		t.Fatalf("post-resample: %q %v", status, err)
	}
	if misses.Value() != 2 {
		t.Fatalf("misses = %d, want 2", misses.Value())
	}

	// Unregister bumps too (its model left the set).
	epoch = svc.Epoch()
	if err := svc.Unregister(names[1].Name); err != nil {
		t.Fatal(err)
	}
	if svc.Epoch() == epoch {
		t.Fatal("Unregister did not bump the epoch")
	}
	out, status, err := svc.rankCached("system data", "cori", 0)
	if err != nil || status != "miss" {
		t.Fatalf("post-unregister: %q %v", status, err)
	}
	for _, r := range out {
		if r.Name == names[1].Name {
			t.Fatalf("unregistered database %s still ranked", r.Name)
		}
	}
}

func TestRankCacheDisabled(t *testing.T) {
	svc, reg := sampledFixture(t)
	svc.SetRankCacheSize(0)
	for i := 0; i < 3; i++ {
		if _, status, err := svc.rankCached("system data", "cori", 0); err != nil || status != "bypass" {
			t.Fatalf("rank %d with cache off: %q %v", i, status, err)
		}
	}
	if h, m := reg.Counter("service_select_cache_hits_total").Value(),
		reg.Counter("service_select_cache_misses_total").Value(); h != 0 || m != 0 {
		t.Fatalf("disabled cache counted hits=%d misses=%d", h, m)
	}
	svc.SetRankCacheSize(8)
	if _, status, _ := svc.rankCached("system data", "cori", 0); status != "miss" {
		t.Fatalf("re-enabled cache: %q", status)
	}
}

func TestRankCacheLRUBound(t *testing.T) {
	c := serving.NewCache(3, "service", func() *telemetry.Registry { return nil })
	// add admits a completed result the way a leading single rank does.
	add := func(q string, val []RankedDB) {
		key := serving.Key{Query: q}
		f, leader := c.Join(key)
		if !leader {
			t.Fatalf("flight %q already in progress", q)
		}
		c.Fulfill(key, f, val, nil, true)
	}
	for _, q := range []string{"a", "b", "c", "d", "e"} {
		add(q, []RankedDB{{Name: q}})
	}
	if c.Len() != 3 {
		t.Fatalf("cache holds %d entries, cap 3", c.Len())
	}
	// "c","d","e" should remain; touching "c" then inserting evicts "d".
	if _, ok := c.Probe(serving.Key{Query: "c"}); !ok {
		t.Fatal("entry c was evicted prematurely")
	}
	add("f", []RankedDB{{Name: "f"}})
	if _, ok := c.Probe(serving.Key{Query: "d"}); ok {
		t.Fatal("LRU entry d survived eviction")
	}
	// Duplicate adds are idempotent: same key refreshes in place.
	add("c", []RankedDB{{Name: "c", Score: 2}})
	if c.Len() != 3 {
		t.Fatalf("idempotent add grew the cache to %d entries", c.Len())
	}
	if val, ok := c.Probe(serving.Key{Query: "c"}); !ok || val[0].Score != 2 {
		t.Fatalf("refreshed entry c = %+v ok=%v", val, ok)
	}
}

func TestCoalescerSingleFlight(t *testing.T) {
	co := serving.NewCache(0, "service", func() *telemetry.Registry { return nil })
	key := serving.Key{Query: "q"}
	f, leader := co.Join(key)
	if !leader {
		t.Fatal("first join not leader")
	}
	if co.Inflight() != 1 {
		t.Fatalf("inflight = %d, want 1", co.Inflight())
	}
	const waiters = 8
	var wg, joined sync.WaitGroup
	results := make([][]RankedDB, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		joined.Add(1)
		go func(i int) {
			defer wg.Done()
			wf, wl := co.Join(key)
			joined.Done()
			if wl {
				t.Errorf("waiter %d became leader", i)
				co.Fulfill(key, wf, nil, nil, false)
				return
			}
			results[i], _ = wf.Wait()
		}(i)
	}
	// Followers must join before the leader fulfills: fulfill retires the
	// flight, so a straggler would (correctly) lead a fresh one.
	joined.Wait()
	want := []RankedDB{{Name: "db1", Score: 1}}
	co.Fulfill(key, f, want, nil, true)
	wg.Wait()
	for i, r := range results {
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("waiter %d got %+v", i, r)
		}
	}
	if co.Inflight() != 0 {
		t.Fatalf("inflight = %d after fulfill, want 0", co.Inflight())
	}
	if co.Len() != 0 {
		t.Fatalf("a capacity-0 cache admitted %d entries", co.Len())
	}

	// Errors reach current followers only: the flight is gone from the map
	// at fulfill, so the next identical request starts fresh.
	key2 := serving.Key{Query: "err"}
	f2, leader := co.Join(key2)
	if !leader {
		t.Fatal("error-case join not leader")
	}
	co.Fulfill(key2, f2, nil, errors.New("boom"), false)
	if _, leader := co.Join(key2); !leader {
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
