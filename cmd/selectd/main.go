// Command selectd runs a database-selection service as an HTTP daemon —
// the deployment the paper envisions: one service, many independently
// operated text databases, language models learned by sampling and kept
// on disk.
//
// Usage:
//
//	selectd [-addr :8080] [-store ./models] [-demo n] [-timeout 10s] [-retries 3]
//
// Cluster mode (DESIGN.md §13): with -join, the instance additionally
// serves its rank/register capabilities over the netsearch fabric on the
// given address, making it a shard other processes can scatter to. With
// -shards, the instance instead runs as a stateless front tier over the
// given topology — slots comma-separated, replicas within a slot
// |-separated — scattering every /rank to all slots and fusing the
// partial rankings. A front owns no models, so -shards refuses -store,
// -demo and -join:
//
//	selectd -join 127.0.0.1:9001 ...   # shard (full selectd + fabric)
//	selectd -shards 'h1:9001|h2:9001,h1:9002|h2:9002'   # front tier
//
// Without either flag, selectd is the unchanged single-process service.
//
// Admission control (DESIGN.md §14) is off by default and available in
// every mode: -max-inflight caps concurrent rank requests, and an arrival
// past the cap is shed with 429 and Retry-After: 1. An admitted request is
// answered in full, as it would be on an idle server:
//
//	selectd -max-inflight 64
//
// Coalescing (DESIGN.md §10): the service computes identical rank work in
// flight once and shares it across its callers, single-process or as a
// shard; a front forwards every rank to its shards, which coalesce it
// there. No completed ranking is kept, so every answer is of the current
// models.
//
// Batch rankings stream: POST /rank/batch?stream=1 flushes each query's
// ranking as it completes (NDJSON, or SSE via Accept: text/event-stream).
//
// With -store, the learned models are the only persisted state: a restart
// re-registers each database with its stored model, and the first /rank
// compiles the selection snapshot from them.
//
// With -demo n, selectd also spins up n in-process demo databases (served
// over netsearch, as real remote databases would be), registers them, and
// samples each — so the API is immediately explorable:
//
//	curl localhost:8080/databases
//	curl localhost:8080/rank?q=some+query
//	curl localhost:8080/databases/db00-finance/summary?k=10
//	curl -XPOST localhost:8080/databases -d '{"name":"x","addr":"host:port"}'
//	curl -XPOST localhost:8080/databases/x/sample -d '{"docs":300}'
//
// Observability: every instance serves runtime metrics at /metrics (JSON,
// or Prometheus text via Accept) and /debug/vars; -pprof additionally
// mounts net/http/pprof under /debug/pprof/. Requests are logged as
// structured key=value lines with per-request trace IDs (see DESIGN.md §9).
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"repro/internal/admission"
	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/netsearch"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
	storeDir := flag.String("store", "", "directory for persisted language models (empty = in-memory only)")
	demo := flag.Int("demo", 0, "spin up this many demo databases and sample them")
	demoDocs := flag.Int("demo-docs", 600, "documents per demo database")
	sampleDocs := flag.Int("demo-sample", 150, "sampling budget per demo database")
	timeout := flag.Duration("timeout", 10*time.Second, "per-operation deadline for remote databases (0 = none)")
	retries := flag.Int("retries", netsearch.DefaultAttempts, "attempts per remote operation, redialing with backoff in between (1 = no retry)")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	logLevel := flag.String("log", "info", "log level: debug, info, warn, error")
	shards := flag.String("shards", "", "run as a stateless front tier over this shard topology (slots comma-separated, replicas |-separated)")
	join := flag.String("join", "", "also serve this instance as a cluster shard on this netsearch address")
	maxInflight := flag.Int("max-inflight", 0, "admission: max concurrent rank requests before shedding with 429 (0 = unbounded)")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "selectd: "+format+"\n", args...)
		os.Exit(1)
	}
	if *shards != "" && *join != "" {
		fail("-shards and -join are mutually exclusive: a front tier owns no models to serve as a shard")
	}
	if *shards != "" && (*storeDir != "" || *demo > 0) {
		fail("-shards runs a stateless front tier: -store and -demo belong on its shards")
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fail("bad -log level %q: %v", *logLevel, err)
	}
	reg := telemetry.NewRegistry()
	logger := telemetry.NewLogger(os.Stderr, level, true)
	adm := admission.Config{MaxInFlight: *maxInflight}
	if *maxInflight > 0 {
		fmt.Printf("admission control on: max-inflight=%d\n", *maxInflight)
	}

	// listen serves handler on -addr, in every mode, with pprof mounted
	// beside it when -pprof asks. ListenAndServe ends only in an error, so
	// listen exits 1 and never returns.
	listen := func(handler http.Handler, what string) {
		if *pprofOn {
			// pprof is opt-in: mounting it on the service mux would expose
			// profiling endpoints on every deployment. We wrap instead of
			// importing for DefaultServeMux side effects.
			mux := http.NewServeMux()
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			mux.Handle("/", handler)
			handler = mux
			fmt.Printf("pprof enabled at http://%s/debug/pprof/\n", *addr)
		}
		fmt.Printf("%s listening on http://%s\n", what, *addr)
		fail("%v", http.ListenAndServe(*addr, handler))
	}

	// Front-tier mode: no service, no store — just ring geometry, shard
	// clients, and transient health. Everything below is shard/single-
	// process setup.
	if *shards != "" {
		slots, err := cluster.ParseSlots(*shards)
		if err != nil {
			fail("%v", err)
		}
		front, err := cluster.NewFront(slots, cluster.Options{
			Net: netsearch.Options{
				Timeout: *timeout,
				Retry:   netsearch.RetryPolicy{Attempts: *retries},
				Metrics: reg,
				Logger:  logger,
			},
			Metrics:   reg,
			Logger:    logger,
			Admission: adm,
		})
		if err != nil {
			fail("%v", err)
		}
		defer front.Close()
		listen(front.Handler(), fmt.Sprintf("front tier over %d slots", len(slots)))
		return
	}

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir)
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("persisting models under %s\n", st.Dir())
	}

	svc := service.New(analysis.Database(), st)
	defer svc.Close()
	svc.SetMetrics(reg)
	svc.SetLogger(logger)
	svc.SetAdmission(adm)
	svc.SetDialOptions(netsearch.Options{
		Timeout: *timeout,
		Retry:   netsearch.RetryPolicy{Attempts: *retries},
		Metrics: reg,
		Logger:  logger,
	})

	if *demo > 0 {
		fmt.Printf("building %d demo databases...\n", *demo)
		dbs, err := experiments.Federation(*demo, *demoDocs, 1)
		if err != nil {
			fail("%v", err)
		}
		for _, db := range dbs {
			ns, err := netsearch.Serve(db.Index, "127.0.0.1:0")
			if err != nil {
				fail("%v", err)
			}
			defer ns.Close()
			if err := svc.Register(db.Name, ns.Addr()); err != nil {
				fail("%v", err)
			}
			// A restart with -store resumes from the persisted model
			// instead of re-sampling: query-based sampling seeds its
			// queries off the learned model, so re-sampling would walk a
			// different path and change the model the restart serves.
			if st != nil {
				if m, err := st.Get(db.Name); err == nil {
					fmt.Printf("  %s @ %s: model resumed from store (%d terms)\n",
						db.Name, ns.Addr(), m.VocabSize())
					continue
				}
			}
			status, err := svc.Sample(db.Name, service.SampleOptions{Docs: *sampleDocs})
			if err != nil {
				fail("sampling %s: %v", db.Name, err)
			}
			fmt.Printf("  %s @ %s: %d docs sampled, %d terms learned\n",
				db.Name, ns.Addr(), status.SampledDocs, status.Terms)
		}
	}

	// Shard mode: the full service keeps its HTTP API (operators register
	// and sample through it as usual) and additionally answers the front
	// tier's scattered rank/register RPCs on the fabric address.
	if *join != "" {
		shardSrv, err := cluster.ServeShard(svc, *join)
		if err != nil {
			fail("%v", err)
		}
		defer shardSrv.Close()
		fmt.Printf("serving as cluster shard on %s (netsearch fabric)\n", shardSrv.Addr())
	}

	listen(svc.Handler(), "selection service")
}
