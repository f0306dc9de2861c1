package bench

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/langmodel"
	"repro/internal/metrics"
	"repro/internal/netsearch"
	"repro/internal/selection"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// The per-layer run has two halves. The first is a shorter end-to-end
// window against the host, for the numbers only the two-process set-up
// has: the host's counters, the client's tails, the process's costs. The
// second replays the workload's query stream serially inside the harness
// process, calling each layer's public functions one at a time with a
// span around every call; no layer is modified to make that possible.
const (
	// probeBlock is how many queries the replay takes from the stream at a
	// time: the size of the batch calls, and the unit in which recording
	// alternates on and off for trace.overhead_ratio.
	probeBlock = 32
	// probeQueriesPerSecond and probeCyclesPerSecond scale the replay with
	// -seconds (a 20 s run replays 20 000 queries and 100 re-sample
	// cycles); probeMaxQueries caps it.
	probeQueriesPerSecond = 1000
	probeMaxQueries       = 20000
	probeCyclesPerSecond  = 5
	// probeShards and probeStreamBatch shape the cluster probes like the
	// sharded workload; probeTextDBs is the sampling probes' federation.
	probeShards      = 2
	probeStreamBatch = 16
	probeTextDBs     = 4
)

// RunTraced is one traced run. It reports every PerLayer metric and
// writes the spans to out/trace-<workload>.json.
func RunTraced(s *Session, w Workload, seed uint64, seconds int) (*Result, error) {
	p, err := prepare(s, w)
	if err != nil {
		return nil, err
	}
	dep, _, err := p.setUp(s)
	if err != nil {
		return nil, err
	}
	defer dep.host.Stop()
	d := max(time.Second, time.Duration(seconds)*time.Second*2/5)
	m, err := dep.measure(w, seed, d/4, d)
	if err != nil {
		return nil, err
	}
	res, _, err := dep.finish(w, seed, seconds, m.win)
	if err != nil {
		return nil, err
	}
	dep.host.Stop() // the replay below should have the machine to itself
	if m.win.queries == 0 {
		return nil, fmt.Errorf("bench: no rank query was answered: %s", m.win.firstErr)
	}
	windowMetrics(res, m)

	pr, err := newProbes(s, w, seed, p)
	if err != nil {
		return nil, err
	}
	defer pr.close()
	nq := min(probeMaxQueries, probeQueriesPerSecond*seconds)
	steps := []func() error{
		pr.compileAndAdmission,
		func() error { return pr.replayQueries(nq) },
		func() error { return pr.replayCluster(nq / 8) },
		func() error { return pr.replaySampling(probeCyclesPerSecond*seconds, p.storeDir) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	res.Attempted += pr.calls
	res.Succeeded += pr.calls
	for name, v := range pr.values {
		res.set(PerLayer, name, v)
	}
	spanMetrics(res, pr.rec.Spans())
	path := filepath.Join(s.OutDir, "trace-"+w.Name+".json")
	return res, WriteTrace(path, w.Name, seed, pr.rec.Spans())
}

// windowMetrics derives the metrics that need the host process: its
// registry's counters over the window, the client's tail latencies, and
// the process costs per query.
func windowMetrics(res *Result, m *measured) {
	win := m.win
	q := float64(win.queries)
	// Every tier in the host shares one registry, so a sum over a name
	// totals the shard services too.
	delta := func(counter string) float64 {
		return float64(m.cAfter.CounterSum(counter) - m.cBefore.CounterSum(counter))
	}
	hits := delta("service_select_cache_hits_total")
	misses := delta("service_select_cache_misses_total")
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	res.set(PerLayer, "service.cache_hit_ratio", ratio)
	res.set(PerLayer, "service.coalesced_ratio", delta("service_rank_coalesced_total")/q)
	res.set(PerLayer, "service.compiles_full", delta(`service_snapshot_compiles_total{scope="full"}`))
	res.set(PerLayer, "service.compiles_incremental", delta(`service_snapshot_compiles_total{scope="incremental"}`))

	sort.Float64s(win.latencies)
	sort.Float64s(win.ttfrs)
	res.set(PerLayer, "client.p95_us", Quantile(win.latencies, 0.95)*1e6)
	res.set(PerLayer, "client.p99_us", Quantile(win.latencies, 0.99)*1e6)
	res.set(PerLayer, "client.p999_us", Quantile(win.latencies, 0.999)*1e6)
	res.set(PerLayer, "client.ttfr_p99_us", Quantile(win.ttfrs, 0.99)*1e6)
	res.set(PerLayer, "client.self_us_per_request", float64((win.loop-win.busy).Microseconds())/float64(win.requests))

	res.set(PerLayer, "host.alloc_kb_per_query", float64(m.after.AllocBytes-m.before.AllocBytes)/1024/q)
	res.set(PerLayer, "host.gc_cycles", float64(m.after.GCCycles-m.before.GCCycles))
	res.set(PerLayer, "host.gc_pause_ms", float64(m.after.GCPauseNs-m.before.GCPauseNs)/1e6)
	res.set(PerLayer, "host.ctx_switches_per_query", float64(m.after.CtxSwitches-m.before.CtxSwitches)/q)
	res.set(PerLayer, "host.io_syscalls_per_query", float64(m.after.IOSyscalls-m.before.IOSyscalls)/q)
}

// spanMetrics turns the recorded spans into the timing metrics: medians
// of span durations and of self times, per query where a span covers a
// batch.
func spanMetrics(res *Result, spans []Span) {
	med := func(name string, per float64) float64 { return Median(Durations(spans, name)) / per }
	self := func(name string, per float64) float64 { return Median(SelfTimes(spans, name)) / per }
	const us, ms = 1e3, 1e6
	res.set(PerLayer, "analysis.tokens_us", med("analysis.tokens", us))
	res.set(PerLayer, "selection.rank_us", med("selection.rank", us))
	res.set(PerLayer, "selection.patch_ms", med("selection.patch", ms))
	res.set(PerLayer, "selection.merge_us", med("selection.merge", us))
	res.set(PerLayer, "service.rank_us", med("service.rank", us))
	res.set(PerLayer, "service.rank_self_us", self("service.rank", us))
	res.set(PerLayer, "service.rank_hit_us", med("service.rank_hit", us))
	res.set(PerLayer, "service.batch_us_per_query", med("service.batch", us*probeBlock))
	res.set(PerLayer, "service.http_us", med("service.http", us))
	res.set(PerLayer, "service.http_self_us", self("service.http", us))
	res.set(PerLayer, "service.http_batch_us_per_query", med("service.http_batch", us*probeBlock))
	res.set(PerLayer, "service.sample_ms", med("service.sample", ms))
	res.set(PerLayer, "service.sample_self_ms", self("service.sample", ms))
	res.set(PerLayer, "netsearch.rank_rtt_us", med("netsearch.rank", us))
	res.set(PerLayer, "netsearch.rankstream_us_per_query", med("netsearch.rankstream", us*probeStreamBatch))
	res.set(PerLayer, "netsearch.search_rtt_us", med("netsearch.search", us))
	res.set(PerLayer, "netsearch.fetch_rtt_us", med("netsearch.fetch", us))
	res.set(PerLayer, "cluster.scatter_us", med("cluster.scatter", us))
	res.set(PerLayer, "cluster.stream_total_us", med("cluster.stream", us))
	res.set(PerLayer, "cluster.http_self_us", self("cluster.http", us))
	res.set(PerLayer, "core.sample_ms", med("core.sample", ms))
	res.set(PerLayer, "index.search_us", med("index.search", us))
	res.set(PerLayer, "langmodel.normalize_ms", med("langmodel.normalize", ms))
	res.set(PerLayer, "store.put_ms", med("store.put", ms))
}

// countingConn counts the bytes a connection carries, both directions.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// countingDial is a netsearch.Options.DialFunc whose connections count
// their traffic into n.
func countingDial(n *atomic.Int64) func(string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return countingConn{conn, n}, nil
	}
}

// probes holds what the in-process replay calls into: the workload's
// federation behind two service instances (one reached through its HTTP
// handler, one called directly, so that each sees every query for the
// first time), the same federation compiled bare, a sharded copy behind a
// front, and a small text federation to sample.
type probes struct {
	s      *Session
	fed    *Federation
	stream *Stream
	rec    *Recorder
	an     analysis.Analyzer
	// values holds the metrics computed directly rather than from spans;
	// calls counts the layer calls made, for the run's attempted count.
	values  map[string]float64
	calls   int
	closers []func() error

	store    *store.Store
	svcHTTP  http.Handler
	svcRank  *service.Service
	regRank  *telemetry.Registry
	compiled *selection.Compiled
	df       map[string]int // databases whose model has the term
}

func newProbes(s *Session, w Workload, seed uint64, p *prepared) (*probes, error) {
	stream, err := NewStream(w, seed, p.fed.Vocab)
	if err != nil {
		return nil, err
	}
	pr := &probes{
		s: s, fed: p.fed, stream: stream, rec: NewRecorder(),
		an: analysis.Database(), values: make(map[string]float64),
	}
	dir := p.storeDir
	if len(p.fed.Text) > 0 {
		// The text databases' models were learned by the host; the harness
		// holds the same ones and stores the whole set for the replay.
		if dir, err = s.TempDir("models"); err != nil {
			return nil, err
		}
		if err := p.fed.WriteStore(dir); err != nil {
			return nil, err
		}
	}
	if pr.store, err = store.Open(dir); err != nil {
		return nil, err
	}
	svc, _, err := pr.warmService(nil)
	if err != nil {
		return nil, err
	}
	pr.svcHTTP = svc.Handler()
	if pr.svcRank, pr.regRank, err = pr.warmService(nil); err != nil {
		return nil, err
	}
	// First calls compile each service's snapshot; that is set-up, not a
	// request's cost.
	for _, svc := range []*service.Service{svc, pr.svcRank} {
		if _, err := svc.Rank(pr.fed.SetupQuery(), Alg, K); err != nil {
			return nil, err
		}
	}
	pr.df = make(map[string]int)
	for _, m := range p.fed.Models {
		m.Range(func(term string, _ langmodel.TermStats) bool {
			pr.df[term]++
			return true
		})
	}
	return pr, nil
}

func (pr *probes) close() {
	for i := len(pr.closers) - 1; i >= 0; i-- {
		_ = pr.closers[i]() // tearing down in-process fixtures after the numbers are taken
	}
}

// warmService builds a service over the federation's stored models, wired
// as the host wires its own. owns selects the databases to register (nil
// = all): a shard's partition.
func (pr *probes) warmService(owns func(name string) bool) (*service.Service, *telemetry.Registry, error) {
	reg := telemetry.NewRegistry()
	svc := service.New(pr.an, pr.store)
	svc.SetMetrics(reg)
	pr.closers = append(pr.closers, svc.Close)
	for _, name := range pr.fed.Names {
		if owns != nil && !owns(name) {
			continue
		}
		if err := svc.Register(name, WarmAddr); err != nil {
			return nil, nil, err
		}
	}
	return svc, reg, nil
}

// compileAndAdmission times the two layers that need no query stream:
// compiling the federation, and passing an enabled admission gate.
func (pr *probes) compileAndAdmission() error {
	var times []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		pr.compiled = selection.Compile(pr.fed.Models)
		times = append(times, float64(time.Since(t0))/1e6)
	}
	pr.values["selection.compile_ms"] = Median(times)

	gate := admission.New(admission.Config{MaxInFlight: 1 << 20}, nil, "bench")
	const chunk = 1000
	times = times[:0]
	for i := 0; i < 50; i++ {
		t0 := time.Now()
		for j := 0; j < chunk; j++ {
			ticket, ok := gate.Admit()
			if !ok {
				return fmt.Errorf("bench: admission gate refused below its cap")
			}
			ticket.Release()
		}
		times = append(times, float64(time.Since(t0))/chunk)
	}
	pr.values["admission.admit_ns"] = Median(times)
	pr.calls += 5 + 50*chunk
	return nil
}

func serve(h http.Handler, req *http.Request) error {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		return fmt.Errorf("bench: in-process %s %s: HTTP %d: %s", req.Method, req.URL.Path, rr.Code, rr.Body)
	}
	return nil
}

func getRank(query string) *http.Request {
	return httptest.NewRequest(http.MethodGet, rankPath(query), nil)
}

func postBatch(path string, queries []string) (*http.Request, error) {
	payload, err := batchPayload(queries)
	if err != nil {
		return nil, err
	}
	return httptest.NewRequest(http.MethodPost, path, bytes.NewReader(payload)), nil
}

// replayQueries walks the containment chain http ⊃ service ⊃ {analysis,
// selection} for each of the stream's next n queries, and the batch pair
// http ⊃ service once per block. Even blocks are recorded and odd ones
// are not; the two kinds' time per query gives trace.overhead_ratio.
func (pr *probes) replayQueries(n int) error {
	alg := selection.CORI{}
	scores := make([]float64, pr.compiled.NumDBs())
	var terms []string
	var ids []int32
	var ranked []selection.Ranked
	misses := pr.regRank.Counter("service_select_cache_misses_total")
	var postings, counted int
	var onTime, offTime time.Duration
	var onN, offN int
	for lo := 0; lo < n; lo += probeBlock {
		block := pr.stream.NextN(probeBlock)
		rec := pr.rec
		if (lo/probeBlock)%2 == 1 {
			rec = nil
		}
		t0 := time.Now()
		for i, q := range block {
			req := lo + i
			httpReq := getRank(q)
			h := rec.Begin("service.http", req, -1)
			err := serve(pr.svcHTTP, httpReq)
			rec.End(h)
			if err != nil {
				return err
			}
			// The second service instance has not seen q unless the stream
			// repeated it, in which case its cache answers: the miss
			// counter tells the two apart.
			before := misses.Value()
			sv := rec.Begin("service.rank", req, h)
			_, err = pr.svcRank.Rank(q, Alg, K)
			rec.End(sv)
			if err != nil {
				return err
			}
			if misses.Value() == before {
				rec.rename(sv, "service.rank_hit")
			}
			a := rec.Begin("analysis.tokens", req, sv)
			terms = pr.an.AppendTokens(terms[:0], q)
			rec.End(a)
			c := rec.Begin("selection.rank", req, sv)
			ids = pr.compiled.AppendIDs(ids[:0], terms)
			ranked, _ = pr.compiled.RankInto(alg, ids, scores, ranked[:0])
			rec.End(c)
			hit := rec.Begin("service.rank_hit", req, -1)
			_, err = pr.svcRank.Rank(q, Alg, K)
			rec.End(hit)
			if err != nil {
				return err
			}
			for _, t := range terms {
				postings += pr.df[t]
			}
			counted++
		}
		if rec != nil {
			onTime += time.Since(t0)
			onN += len(block)
		} else {
			offTime += time.Since(t0)
			offN += len(block)
		}

		blk := lo / probeBlock
		httpReq, err := postBatch("/rank/batch", block)
		if err != nil {
			return err
		}
		hb := pr.rec.Begin("service.http_batch", blk, -1)
		err = serve(pr.svcHTTP, httpReq)
		pr.rec.End(hb)
		if err != nil {
			return err
		}
		sb := pr.rec.Begin("service.batch", blk, hb)
		_, err = pr.svcRank.RankBatch(block, Alg, K)
		pr.rec.End(sb)
		if err != nil {
			return err
		}
		pr.calls += 5*len(block) + 2
	}
	pr.values["selection.postings_per_query"] = float64(postings) / float64(counted)
	if onN == 0 || offN == 0 {
		return fmt.Errorf("bench: replay of %d queries is too short to alternate recording", n)
	}
	pr.values["trace.overhead_ratio"] = (offTime.Seconds() / float64(offN)) / (onTime.Seconds() / float64(onN))
	return nil
}

// replayCluster walks front-http ⊃ cluster ⊃ netsearch ⊃ shard service
// over a sharded copy of the federation served on loopback inside the
// harness: per block of the stream, two scattered single ranks with each
// shard's own round trip, and one streamed batch.
func (pr *probes) replayCluster(nQueries int) error {
	ring := cluster.NewRing(probeShards, 0, 0)
	reg := telemetry.NewRegistry()
	addrs := make([][]string, probeShards)
	shardSvcs := make([]*service.Service, probeShards)
	clients := make([]*netsearch.Client, probeShards)
	var wire atomic.Int64
	for s := 0; s < probeShards; s++ {
		s := s
		svc, _, err := pr.warmService(func(name string) bool { return ring.Owner(name) == s })
		if err != nil {
			return err
		}
		// Each query is asked of a shard three times below (through the
		// front, directly, in process); without its result cache every one
		// of them does the whole work.
		svc.SetRankCacheSize(0)
		srv, err := cluster.ServeShard(svc, "127.0.0.1:0")
		if err != nil {
			return err
		}
		pr.closers = append(pr.closers, srv.Close)
		shardSvcs[s] = svc
		addrs[s] = []string{srv.Addr()}
		if clients[s], err = netsearch.DialWith(srv.Addr(), netsearch.Options{DialFunc: countingDial(&wire)}); err != nil {
			return err
		}
		pr.closers = append(pr.closers, clients[s].Close)
	}
	front, err := cluster.NewFront(addrs, cluster.Options{Metrics: reg})
	if err != nil {
		return err
	}
	pr.closers = append(pr.closers, front.Close)
	handler := front.Handler()
	if _, err := front.Rank(pr.fed.SetupQuery(), Alg, K, ""); err != nil {
		return err // also dials the front's connections and compiles the shards
	}

	var scatterSelf, firstEmit []float64
	var rankBytes, rankCalls int64
	lists := make([][]selection.DocScore, probeShards)
	weights := make([]float64, probeShards)
	var fused []selection.MergedHit
	rec := pr.rec
	for blk := 0; blk*probeStreamBatch < nQueries; blk++ {
		block := pr.stream.NextN(probeStreamBatch)
		for j, q := range block[:2] {
			req := blk*probeStreamBatch + j
			sc := rec.Begin("cluster.scatter", req, -1)
			_, err := front.Rank(q, Alg, K, "")
			rec.End(sc)
			if err != nil {
				return err
			}
			slowest := int64(0)
			for s, cl := range clients {
				sent := wire.Load()
				rt := rec.Begin("netsearch.rank", req, sc)
				partial, err := cl.RankDBs(q, Alg, K, "")
				rec.End(rt)
				if err != nil {
					return err
				}
				rankBytes += wire.Load() - sent
				rankCalls++
				slowest = max(slowest, rec.dur(rt))
				sh := rec.Begin("shard.rank", req, rt)
				_, err = shardSvcs[s].Rank(q, Alg, K)
				rec.End(sh)
				if err != nil {
					return err
				}
				lists[s] = lists[s][:0]
				for i, r := range partial {
					lists[s] = append(lists[s], selection.DocScore{Doc: i, Score: r.Score})
				}
				weights[s] = 1
			}
			scatterSelf = append(scatterSelf, float64(max(0, rec.dur(sc)-slowest)))
			mg := rec.Begin("selection.merge", req, sc)
			fused, err = selection.MergeWeightedInto(fused, lists, weights, K)
			rec.End(mg)
			if err != nil {
				return err
			}
		}

		httpReq, err := postBatch("/rank/batch?stream=1", block)
		if err != nil {
			return err
		}
		hs := rec.Begin("cluster.http", blk, -1)
		err = serve(handler, httpReq)
		rec.End(hs)
		if err != nil {
			return err
		}
		first := int64(0)
		st := rec.Begin("cluster.stream", blk, hs)
		start := time.Now()
		err = front.RankBatchStream(block, Alg, K, "", func(i int, item netsearch.RankedBatch) error {
			if first == 0 {
				first = int64(time.Since(start))
			}
			if item.Error != "" {
				return fmt.Errorf("bench: streamed item %d: %s", i, item.Error)
			}
			return nil
		})
		rec.End(st)
		if err != nil {
			return err
		}
		firstEmit = append(firstEmit, float64(first))
		ns := rec.Begin("netsearch.rankstream", blk, st)
		err = clients[0].RankDBsStream(block, Alg, K, "", func(int, netsearch.RankedBatch) error { return nil })
		rec.End(ns)
		if err != nil {
			return err
		}
		pr.calls += 2*(2+2*probeShards) + 3
	}
	retries := 0
	for _, cl := range clients {
		retries += cl.Stats().Retries
	}
	pr.values["netsearch.retries"] = float64(retries)
	pr.values["netsearch.rank_bytes_per_query"] = float64(rankBytes) / float64(rankCalls)
	pr.values["cluster.scatter_self_us"] = Median(scatterSelf) / 1e3
	pr.values["cluster.stream_first_emit_us"] = Median(firstEmit) / 1e3
	pr.values["cluster.failovers"] = float64(reg.Counter("cluster_failovers_total").Value())
	return nil
}

// replaySampling walks the write path on a service built like the refresh
// workload's host, with fewer text databases: the synthetic models loaded
// warm from a store, probeTextDBs text databases served over loopback
// netsearch inside the harness. Each cycle re-samples one database through
// the service, then repeats the run's parts one layer at a time: the
// sampler on the local index, the normalization, the store write, the
// snapshot patch, and single search and fetch round trips.
func (pr *probes) replaySampling(cycles int, syntheticStore string) error {
	txt, err := MixedFederation(probeTextDBs)
	if err != nil {
		return err
	}
	dirs := make([]string, 2)
	for i := range dirs {
		if dirs[i], err = pr.s.TempDir("sampling"); err != nil {
			return err
		}
	}
	if err := copyStore(syntheticStore, dirs[0]); err != nil {
		return err
	}
	svcStore, err := store.Open(dirs[0])
	if err != nil {
		return err
	}
	putStore, err := store.Open(dirs[1])
	if err != nil {
		return err
	}
	svc := service.New(pr.an, svcStore)
	svc.SetMetrics(telemetry.NewRegistry())
	pr.closers = append(pr.closers, svc.Close)
	for i, name := range txt.Names {
		if txt.Models[i] == nil {
			continue // a text database, registered with its address below
		}
		if err := svc.Register(name, WarmAddr); err != nil {
			return err
		}
	}
	var wire atomic.Int64
	clients := make([]*netsearch.Client, probeTextDBs)
	var ctf, spearman float64
	for i, db := range txt.Text {
		srv, err := netsearch.Serve(db.Index, "127.0.0.1:0")
		if err != nil {
			return err
		}
		pr.closers = append(pr.closers, srv.Close)
		if err := svc.Register(db.Name, srv.Addr()); err != nil {
			return err
		}
		if clients[i], err = netsearch.DialWith(srv.Addr(), netsearch.Options{DialFunc: countingDial(&wire)}); err != nil {
			return err
		}
		pr.closers = append(pr.closers, clients[i].Close)
		// The set-up sample, and what the paper measures of it.
		opts := service.SampleOptions{Docs: InitialSampleDocs, Seed: 1, InitialTerm: db.InitialTerm}
		if _, err := svc.Sample(db.Name, opts); err != nil {
			return err
		}
		if _, err := txt.SetModel(i, InitialSampleDocs, 1); err != nil {
			return err
		}
		ctf += metrics.CtfRatio(txt.Models[db.At], db.Actual)
		spearman += metrics.Spearman(txt.Models[db.At], db.Actual, langmodel.ByDF)
	}
	pr.values["core.ctf_ratio"] = ctf / probeTextDBs
	pr.values["core.spearman_df"] = spearman / probeTextDBs
	compiled := selection.Compile(txt.Models)
	query := txt.SetupQuery()
	if _, err := svc.Rank(query, Alg, K); err != nil {
		return err
	}

	var refresh []float64
	var docs, localDocs, probeQueries, wasted int
	var sampleTime time.Duration
	var fetchBytes, fetches int64
	rec := pr.rec
	for c := 1; c <= cycles; c++ {
		i := c % probeTextDBs
		db, seed := txt.Text[i], uint64(c)
		sm := rec.Begin("service.sample", c, -1)
		st, err := svc.Sample(db.Name, service.SampleOptions{Docs: ResampleDocs, Seed: seed, InitialTerm: db.InitialTerm})
		rec.End(sm)
		if err != nil {
			return err
		}
		docs += st.SampledDocs
		sampleTime += time.Duration(rec.dur(sm))
		// The first rank after a re-sample pays for the new epoch.
		fr := rec.Begin("service.first_rank", c, -1)
		_, err = svc.Rank(query, Alg, K)
		rec.End(fr)
		if err != nil {
			return err
		}
		refresh = append(refresh, float64(rec.dur(sm)+rec.dur(fr)))

		cs := rec.Begin("core.sample", c, sm)
		res, err := core.Sample(db.Index, SampleConfig(ResampleDocs, seed, db.InitialTerm))
		rec.End(cs)
		if err != nil {
			return err
		}
		localDocs += res.Docs
		probeQueries += res.Queries
		wasted += res.FailedQueries + res.ZeroNewQueries
		nm := rec.Begin("langmodel.normalize", c, sm)
		model := res.Learned.Normalize(pr.an)
		rec.End(nm)
		sp := rec.Begin("store.put", c, sm)
		err = putStore.Put(db.Name, model)
		rec.End(sp)
		if err != nil {
			return err
		}
		pt := rec.Begin("selection.patch", c, fr)
		patched, err := compiled.Patch([]selection.ModelPatch{{DB: db.At, Old: txt.Models[db.At], New: model}})
		rec.End(pt)
		if err != nil {
			return err
		}
		compiled, txt.Models[db.At] = patched, model

		// One search and its fetches, as the sampler issues them, over the
		// wire and on the index itself.
		term := res.QueryTerms[len(res.QueryTerms)/2]
		se := rec.Begin("netsearch.search", c, cs)
		hits, err := clients[i].Search(term, 4)
		rec.End(se)
		if err != nil {
			return err
		}
		for _, id := range hits {
			sent := wire.Load()
			fe := rec.Begin("netsearch.fetch", c, cs)
			_, err := clients[i].Fetch(id)
			rec.End(fe)
			if err != nil {
				return err
			}
			fetchBytes += wire.Load() - sent
			fetches++
		}
		ix := rec.Begin("index.search", c, se)
		_, err = db.Index.SearchScored(term, 4)
		rec.End(ix)
		if err != nil {
			return err
		}
		pr.calls += 8 + len(hits)
	}
	if fetches == 0 {
		return fmt.Errorf("bench: %d sampling cycles fetched no document", cycles)
	}
	retries := 0
	for _, cl := range clients {
		retries += cl.Stats().Retries
	}
	pr.values["netsearch.retries"] += float64(retries)
	pr.values["netsearch.fetch_bytes_per_doc"] = float64(fetchBytes) / float64(fetches)
	pr.values["service.refresh_ms"] = Median(refresh) / 1e6
	pr.values["service.sample_docs_per_s"] = float64(docs) / sampleTime.Seconds()
	pr.values["core.queries_per_100docs"] = float64(probeQueries) * 100 / float64(localDocs)
	pr.values["core.wasted_query_ratio"] = float64(wasted) / float64(probeQueries)
	return nil
}
