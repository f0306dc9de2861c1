// Command benchhost is the program under test in the benchmark: one OS
// process that serves the selection API the way cmd/selectd does (and
// internal/loadgen.Spawn does for the in-process load gates), so the
// harness (cmd/qbbench) can drive it from a second process.
//
// Usage:
//
//	benchhost -store DIR [-cpu N] [-shards N | -refresh]
//
// Every model file already in -store is registered warm, as loadgen.Spawn
// does. With -shards N the process runs N shard services, each serving
// its ring partition over a loopback netsearch listener, and a stateless
// front over them — a whole cluster in one process, talking real TCP.
// With -refresh the process also builds the refresh workload's text
// databases (bench.TextDBs of them, experiments.Federation), serves each
// over loopback netsearch and registers it unsampled, as selectd -demo
// does before its sampling loop.
//
// With -cpu the process confines itself to that CPU before doing anything
// else (bench.PinProcess says why).
//
// The host prints "BENCHHOST http://127.0.0.1:<port>" once it is
// listening and exits when its standard input closes, so a dead harness
// never leaves a host behind. Besides the service's own API
// it serves GET /bench/stats, the process counters the harness takes
// deltas of; the endpoint reads, and changes nothing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/netsearch"
	"repro/internal/parallel"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/telemetry"

	"repro/benchmark/bench"
)

func main() {
	storeDir := flag.String("store", "", "model store directory; every model in it is registered warm")
	shards := flag.Int("shards", 0, "run this many shard services behind a front tier (0 = single process service)")
	refresh := flag.Bool("refresh", false, "also build, serve and register the refresh workload's text databases")
	cpu := flag.Int("cpu", -1, "pin the process to this CPU (-1 = run anywhere)")
	flag.Parse()
	if *cpu >= 0 {
		if err := bench.PinProcess(*cpu); err != nil {
			fmt.Fprintln(os.Stderr, "benchhost:", err)
			os.Exit(1)
		}
	}
	if err := run(*storeDir, *shards, *refresh); err != nil {
		fmt.Fprintln(os.Stderr, "benchhost:", err)
		os.Exit(1)
	}
}

func run(storeDir string, shards int, refresh bool) error {
	if storeDir == "" {
		return fmt.Errorf("-store is required")
	}
	if shards > 0 && refresh {
		return fmt.Errorf("-shards and -refresh are mutually exclusive")
	}
	st, err := store.Open(storeDir)
	if err != nil {
		return err
	}
	names, err := st.List()
	if err != nil {
		return err
	}
	// One registry for every tier in the process: a single scrape of
	// /metrics then totals the shard services' counters.
	reg := telemetry.NewRegistry()
	dial := netsearch.Options{
		Timeout: 10 * time.Second,
		Retry:   netsearch.RetryPolicy{Attempts: netsearch.DefaultAttempts},
		Metrics: reg,
	}
	newService := func() *service.Service {
		svc := service.New(analysis.Database(), st)
		svc.SetMetrics(reg)
		svc.SetDialOptions(dial)
		return svc
	}

	var handler http.Handler
	if shards > 0 {
		ring := cluster.NewRing(shards, 0, 0)
		addrs := make([][]string, shards)
		for s := 0; s < shards; s++ {
			svc := newService()
			srv, err := cluster.ServeShard(svc, "127.0.0.1:0")
			if err != nil {
				return err
			}
			addrs[s] = []string{srv.Addr()}
			for _, name := range names {
				if ring.Owner(name) != s {
					continue
				}
				if err := svc.Register(name, bench.WarmAddr); err != nil {
					return err
				}
			}
		}
		front, err := cluster.NewFront(addrs, cluster.Options{Net: dial, Metrics: reg})
		if err != nil {
			return err
		}
		handler = front.Handler()
	} else {
		svc := newService()
		for _, name := range names {
			if err := svc.Register(name, bench.WarmAddr); err != nil {
				return err
			}
		}
		if refresh {
			// The harness builds the same databases to know what the
			// host's sampling runs must learn.
			dbs, err := experiments.Federation(bench.TextDBs, bench.TextDocs, bench.TextSeed)
			if err != nil {
				return err
			}
			for _, db := range dbs {
				ns, err := netsearch.Serve(db.Index, "127.0.0.1:0")
				if err != nil {
					return err
				}
				if err := svc.Register(db.Name, ns.Addr()); err != nil {
					return err
				}
			}
		}
		handler = svc.Handler()
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/bench/stats", serveStats)
	mux.Handle("/", handler)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	fmt.Printf("BENCHHOST http://%s\n", ln.Addr())

	// The harness holds our standard input open for as long as it wants
	// us; when it closes (or the harness dies) the server stops and main
	// returns. Everything the process started dies with it.
	watch := parallel.NewGroup(1)
	watch.Go(func() error {
		if _, err := io.Copy(io.Discard, os.Stdin); err != nil {
			fmt.Fprintln(os.Stderr, "benchhost: reading stdin:", err)
		}
		return srv.Close()
	})
	if err := srv.Serve(ln); err != http.ErrServerClosed {
		return err
	}
	return watch.Wait()
}

// serveStats answers GET /bench/stats with the process counters of
// bench.HostStats.
func serveStats(w http.ResponseWriter, _ *http.Request) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	stats := bench.HostStats{
		Mallocs:     ms.Mallocs,
		AllocBytes:  ms.TotalAlloc,
		GCCycles:    uint64(ms.NumGC),
		GCPauseNs:   ms.PauseTotalNs,
		CPUMicros:   uint64(ru.Utime.Sec+ru.Stime.Sec)*1e6 + uint64(ru.Utime.Usec+ru.Stime.Usec),
		PeakRSSKB:   procCounter("/proc/self/status", "VmHWM"),
		CtxSwitches: uint64(ru.Nvcsw + ru.Nivcsw),
		IOSyscalls:  procCounter("/proc/self/io", "syscr") + procCounter("/proc/self/io", "syscw"),
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(stats) // a broken scrape connection fails the harness's read
}

// procCounter reads the number after "key:" in a /proc file of that
// layout (a trailing unit, as in "VmHWM:  1234 kB", is ignored); 0 where
// the file or the key is missing.
func procCounter(path, key string) uint64 {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if val, ok := strings.CutPrefix(line, key+":"); ok {
			if fields := strings.Fields(val); len(fields) > 0 {
				n, _ := strconv.ParseUint(fields[0], 10, 64)
				return n
			}
		}
	}
	return 0
}
