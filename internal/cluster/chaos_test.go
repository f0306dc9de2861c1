package cluster

// Chaos suite for the cluster tier: a shard replica is killed in the
// middle of a scattered rank query — its last frame truncated on the
// wire, its listener gone for redials — and the front must answer the
// query from the surviving replica with a bit-identical fused ranking.
// That identity is the payoff of deterministic sampling: replicas that
// sampled the same databases with the same seeds hold byte-identical
// models, so failover is invisible to the caller. Run with `make chaos`
// (always under -race in CI).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/analysis"
	"repro/internal/experiments"
	"repro/internal/faulty"
	"repro/internal/loadgen"
	"repro/internal/netsearch"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/telemetry"
)

func TestChaosShardKillFailover(t *testing.T) {
	dbs, err := experiments.Federation(4, 150, 31)
	if err != nil {
		t.Fatal(err)
	}
	sample := service.SampleOptions{Docs: 40, Seed: 7}

	// Two slots, two replicas each, all real services.
	const nSlots, nReplicas = 2, 2
	svcs := make([][]*service.Service, nSlots)
	servers := make([][]*netsearch.Server, nSlots)
	addrs := make([][]string, nSlots)
	for s := 0; s < nSlots; s++ {
		for r := 0; r < nReplicas; r++ {
			svc := service.New(analysis.Database(), nil)
			srv, err := ServeShard(svc, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			svcs[s] = append(svcs[s], svc)
			servers[s] = append(servers[s], srv)
			addrs[s] = append(addrs[s], srv.Addr())
		}
	}

	// The victim is the first replica of whichever slot owns dbs[0], so
	// the killed shard is provably serving part of the answer. Its
	// connections are wrapped from the start: the first Write (the warm
	// query) passes, the second is truncated mid-frame — the query that
	// is on the wire when the shard dies.
	ring := NewRing(nSlots, 0, 0)
	victimSlot := ring.Owner(dbs[0].Name)
	victimAddr := addrs[victimSlot][0]
	dial := func(addr string) (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		if addr == victimAddr {
			return faulty.WrapConn(c, faulty.ConnOptions{FailWriteCall: 2}), nil
		}
		return c, nil
	}

	reg := telemetry.NewRegistry()
	f, err := NewFront(addrs, Options{
		Net: netsearch.Options{
			DialFunc:  dial,
			Retry:     netsearch.RetryPolicy{Attempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Seed: 1},
			SleepFunc: func(time.Duration) {},
		},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })

	// Replicas of a slot hold the same databases and sample them with the
	// same options — deterministic sampling makes their models, and hence
	// their partial rankings, byte-identical.
	for _, db := range dbs {
		for _, svc := range svcs[f.Ring().Owner(db.Name)] {
			if err := svc.RegisterLocal(db.Name, db.Index); err != nil {
				t.Fatal(err)
			}
			if _, err := svc.Sample(db.Name, sample); err != nil {
				t.Fatal(err)
			}
		}
	}

	terms := experiments.TopicalTerms(dbs[0], dbs, 4)
	query := terms[0] + " " + terms[1]

	baseline, err := f.Rank(query, "cori", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline) == 0 {
		t.Fatal("warm query returned an empty ranking; the chaos scenario needs a real answer to protect")
	}

	// Kill the victim: the listener goes away (redials will be refused)
	// and the next frame on the warm connection dies mid-write.
	servers[victimSlot][0].Close()

	failoversBefore := reg.Snapshot().Counters["cluster_failovers_total"]
	for i := 0; i < DefaultTripThreshold+1; i++ {
		got, err := f.Rank(query, "cori", 0, "")
		if err != nil {
			t.Fatalf("rank %d after shard kill: %v", i, err)
		}
		if !reflect.DeepEqual(got, baseline) {
			t.Fatalf("rank %d after shard kill diverged:\n got %+v\nwant %+v", i, got, baseline)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["cluster_failovers_total"] <= failoversBefore {
		t.Errorf("cluster_failovers_total = %d, want > %d after killing a shard",
			snap.Counters["cluster_failovers_total"], failoversBefore)
	}
	if snap.Counters["cluster_breaker_trips_total"] == 0 {
		t.Error("the dead replica's breaker never tripped")
	}
	open := false
	for _, h := range f.Health() {
		if h.Addr == victimAddr && h.BreakerOpen {
			open = true
		}
	}
	if !open {
		t.Errorf("dead replica %s not marked open in %+v", victimAddr, f.Health())
	}
}

// TestChaosShardKillUnderLoad drives the same fabric through real HTTP
// under load: four closed-loop workers post rank batches to the front
// while a shard replica is killed a third of the way through. The front
// must absorb the kill (failover to the surviving replica, no failed
// request surfacing to a client) and the tail must stay bounded: failover
// costs a redial, not a hang.
func TestChaosShardKillUnderLoad(t *testing.T) {
	const (
		nSlots, nReplicas = 2, 2
		nDBs              = 24
		requests, workers = 30, 4
		batch             = 4
		killAt            = requests / 3
	)
	models, words := loadgen.SyntheticModels(nDBs, 0xbe7c)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, nDBs)
	for i, m := range models {
		names[i] = fmt.Sprintf("db-%03d", i)
		if err := st.Put(names[i], m); err != nil {
			t.Fatal(err)
		}
	}

	// Replicas of a slot register the same databases warm from the shared
	// store, so their partial rankings are byte-identical and failover is
	// invisible to the fused result.
	ring := NewRing(nSlots, 0, 0)
	servers := make([][]*netsearch.Server, nSlots)
	addrs := make([][]string, nSlots)
	for s := 0; s < nSlots; s++ {
		for r := 0; r < nReplicas; r++ {
			svc := service.New(analysis.Database(), st)
			t.Cleanup(func() { svc.Close() })
			srv, err := ServeShard(svc, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			servers[s] = append(servers[s], srv)
			addrs[s] = append(addrs[s], srv.Addr())
			for _, name := range names {
				if ring.Owner(name) != s {
					continue
				}
				if err := svc.Register(name, "chaos.invalid:0"); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	reg := telemetry.NewRegistry()
	front, err := NewFront(addrs, Options{
		Net: netsearch.Options{
			Retry:     netsearch.RetryPolicy{Attempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Seed: 1},
			SleepFunc: func(time.Duration) {},
		},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { front.Close() })
	web := httptest.NewServer(front.Handler())
	t.Cleanup(web.Close)

	// The closed loop: each worker sends its next batch when the last one
	// is answered. When killAt requests are done the first replica of slot
	// 0 goes away: its listener closes (redials refused) and its live
	// connections die under the queries in flight.
	var next, done atomic.Int64
	var kill sync.Once
	var wg sync.WaitGroup
	latency := make([]time.Duration, requests)
	failed := make([]string, requests)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := int(next.Add(1)) - 1; g < requests; g = int(next.Add(1)) - 1 {
				req := batchRankRequest{Alg: "cori", K: 5}
				for i := 0; i < batch; i++ {
					at := (g*batch + i) * 3 // three pool words a query, no query twice
					req.Queries = append(req.Queries, words[at]+" "+words[at+1]+" "+words[at+2])
				}
				t0 := time.Now()
				failed[g] = postBatch(web.URL+"/rank/batch", req)
				latency[g] = time.Since(t0)
				if done.Add(1) >= killAt {
					kill.Do(func() { servers[0][0].Close() })
				}
			}
		}()
	}
	wg.Wait()

	// Zero failed requests: every one that raced the kill must have been
	// answered by the surviving replica via failover.
	for g, f := range failed {
		if f != "" {
			t.Errorf("request %d: %s", g, f)
		}
	}
	if reg.Snapshot().Counters["cluster_failovers_total"] == 0 {
		t.Error("cluster_failovers_total = 0, want > 0 after killing a replica under load")
	}
	// Bounded tail (of 30 requests the p99 is the slowest). The bound is
	// generous for a loaded CI machine; a hang would blow far past it.
	if p99, limit := slices.Max(latency), 5*time.Second; p99 > limit {
		t.Errorf("p99 = %s, want at most %s", p99, limit)
	}
}

// postBatch sends one rank batch and says what, if anything, was wrong
// with the answer. Unlike postJSON it never fails the test itself, so
// worker goroutines can call it.
func postBatch(url string, req batchRankRequest) string {
	body, err := json.Marshal(req)
	if err != nil {
		return err.Error()
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err.Error()
	}
	defer resp.Body.Close()
	var got batchRankResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		return fmt.Sprintf("HTTP %d: %v", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK || len(got.Results) != len(req.Queries) {
		return fmt.Sprintf("HTTP %d, %d results for %d queries", resp.StatusCode, len(got.Results), len(req.Queries))
	}
	for _, item := range got.Results {
		if item.Error != "" {
			return item.Error
		}
	}
	return ""
}

// TestChaosFrontIdenticalConcurrentRanks: the front keeps no flights, so
// 16 identical GET /rank requests released at once each scatter. Every
// answer must be the bits a lone rank gets, and afterwards every in-flight
// gauge, the front's admission gauge and each shard's flight gauge, must
// read 0.
func TestChaosFrontIdenticalConcurrentRanks(t *testing.T) {
	const nSlots, nDBs, callers = 2, 8, 16
	models, words := loadgen.SyntheticModels(nDBs, 0x5eed)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	shardRegs := make([]*telemetry.Registry, nSlots)
	addrs := make([][]string, nSlots)
	for s := range addrs {
		shardRegs[s] = telemetry.NewRegistry()
		svc := service.New(analysis.Database(), st)
		svc.SetMetrics(shardRegs[s])
		t.Cleanup(func() { svc.Close() })
		srv, err := ServeShard(svc, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[s] = []string{srv.Addr()}
		// A rank scatters to every slot whatever the ring says, so the
		// databases are dealt round-robin: both shards hold models.
		for i := s; i < nDBs; i += nSlots {
			name := fmt.Sprintf("db-%02d", i)
			if err := st.Put(name, models[i]); err != nil {
				t.Fatal(err)
			}
			if err := svc.Register(name, "chaos.invalid:0"); err != nil {
				t.Fatal(err)
			}
		}
	}
	frontReg := telemetry.NewRegistry()
	front, err := NewFront(addrs, Options{Metrics: frontReg, Admission: admission.Config{MaxInFlight: 2 * callers}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { front.Close() })
	web := httptest.NewServer(front.Handler())
	t.Cleanup(web.Close)

	query := words[0] + " " + words[1] + " " + words[2]
	lone, err := front.Rank(query, "cori", 5, "")
	if err != nil || len(lone) == 0 {
		t.Fatalf("lone rank: %+v, %v", lone, err)
	}
	url := web.URL + "/rank?alg=cori&k=5&q=" + strings.ReplaceAll(query, " ", "+")
	start := make(chan struct{})
	got := make([][]netsearch.RankedDB, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := http.Get(url)
			if err != nil {
				t.Errorf("caller %d: %v", c, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("caller %d: status %d", c, resp.StatusCode)
				return
			}
			if err := json.NewDecoder(resp.Body).Decode(&got[c]); err != nil {
				t.Errorf("caller %d: decode: %v", c, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	for c, ranked := range got {
		if len(ranked) != len(lone) {
			t.Fatalf("caller %d: %d rows, a lone rank %d", c, len(ranked), len(lone))
		}
		for j := range lone {
			if ranked[j].Name != lone[j].Name || math.Float64bits(ranked[j].Score) != math.Float64bits(lone[j].Score) {
				t.Fatalf("caller %d row %d = %+v, a lone rank %+v", c, j, ranked[j], lone[j])
			}
		}
	}

	for tierName, reg := range map[string]*telemetry.Registry{"front": frontReg, "shard 0": shardRegs[0], "shard 1": shardRegs[1]} {
		snap := reg.Snapshot()
		gauges := 0
		for name, v := range snap.Gauges {
			if strings.HasSuffix(name, "_inflight") {
				gauges++
				if v != 0 {
					t.Errorf("%s: %s = %d after every rank answered, want 0", tierName, name, v)
				}
			}
		}
		if gauges == 0 {
			t.Errorf("%s: no in-flight gauge registered", tierName)
		}
	}
}
