// Package bench is the repository's benchmark: workload generation, the
// closed-loop client, host process management, reference rankings, the
// span recorder and the per-layer probes. cmd/qbbench is its command line
// and cmd/benchhost the program it measures; README.md says why each
// workload and metric exists.
package bench

// Fixed inputs shared by every workload. They are constants, not flags:
// two runs are comparable only if they agree on all of them.
const (
	// DefaultSeconds is the timed window BENCHMARK.json asks for.
	DefaultSeconds = 20
	// FederationDBs synthetic models (loadgen.SyntheticModels, seed
	// FederationSeed) are what the rank workloads select among.
	FederationDBs  = 512
	FederationSeed = 0xbe7c
	// TextDBs experiments.Federation databases of TextDocs documents
	// (seed TextSeed) are what the refresh workload samples, and ranks
	// together with the synthetic models.
	TextDBs  = 16
	TextDocs = 2000
	TextSeed = 0x7e87
	// InitialSampleDocs is the set-up sampling budget per text database,
	// ResampleDocs the budget of each re-sample during the window.
	InitialSampleDocs = 300
	ResampleDocs      = 100
	// BatchesPerRefresh rank requests follow each re-sample.
	BatchesPerRefresh = 4
	// Alg and K are sent with every rank request.
	Alg = "cori"
	K   = 10
	// QueryTerms terms per query, drawn Zipf(ZipfS) from the vocabulary.
	QueryTerms = 3
	ZipfS      = 1.2
	// VerifyQueries fixed queries (seed VerifySeed, whatever the run's
	// seed) are checked against the in-process reference after the window.
	VerifyQueries = 500
	VerifySeed    = 0x5eed
	// SetupRepeats is how many times a run sets the host up; setup_s is
	// the median, so one slow process start does not decide it.
	SetupRepeats = 3
	// WarmAddr is the address warm registrations carry: models come from
	// the store and the address is never dialled (loadgen.Spawn's idiom).
	WarmAddr = "spawn.invalid:0"
)

// Shape is how a workload sends its rank queries.
type Shape int

const (
	// ShapeSingle is one GET /rank per query.
	ShapeSingle Shape = iota
	// ShapeBatch is one buffered POST /rank/batch per Workload.Batch queries.
	ShapeBatch
	// ShapeStream is POST /rank/batch?stream=1, NDJSON frames.
	ShapeStream
)

// Workload is one traffic mix. The fields are everything that differs
// between workloads; the client, host and probes read them and never the
// name.
type Workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why   string
	Shape Shape
	// Batch is the number of queries per request (1 for ShapeSingle).
	Batch int
	// Conns is the number of keep-alive connections, each a closed loop.
	Conns int
	// Shards > 0 runs the host as that many shards behind a front.
	Shards int
	// HotShare of query positions are drawn from a HotPool-query pool;
	// every other query is unique across the whole run.
	HotShare float64
	HotPool  int
	// Refresh makes the host serve text databases too, and the client
	// re-sample one of them before every BatchesPerRefresh rank requests.
	Refresh bool
}

// Workloads is the benchmark's fixed workload list, in BENCHMARK.json
// order.
var Workloads = []Workload{
	{
		Name:  "rank_uniq",
		Why:   "single GET /rank, no query repeats: HTTP, analysis and the scorer do all the work, cache and coalescer none",
		Shape: ShapeSingle, Batch: 1, Conns: 2,
	},
	{
		Name:  "batch_hot",
		Why:   "buffered POST /rank/batch of 32, 75% of positions from a 64-query hot pool: HTTP cost is shared by 32 and dedup skips the scorer",
		Shape: ShapeBatch, Batch: 32, Conns: 2, HotShare: 0.75, HotPool: 64,
	},
	{
		Name:  "front_stream",
		Why:   "streamed batches of 16 through a 2-shard front: the only workload on which the netsearch wire and cluster fusion run",
		Shape: ShapeStream, Batch: 16, Conns: 2, Shards: 2,
	},
	{
		Name:  "refresh",
		Why:   "one connection re-samples one of 16 text databases, then sends 4 rank batches of 16: the write path beside the read path, epoch after epoch",
		Shape: ShapeBatch, Batch: 16, Conns: 1, Refresh: true,
	},
}

// WorkloadByName finds a workload of the fixed list.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// MetricDef names one metric. Better is "lower" or "higher"; Bound is the
// share of the parent's median by which an end-to-end metric may worsen
// (per-layer metrics have none).
type MetricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// EndToEnd lists the metrics a run without tracing reports, on every
// workload. README.md defines each, and gives the measurements behind the
// bounds: a bound must exceed what ten runs of one commit spread by, or
// the driver refuses the benchmark and later changes that change nothing
// are rejected. The four metrics that follow the speed of the machine's
// CPUs (qps, p50_us, ttfr_p50_us, cpu_us_per_query) spread by up to a
// fifth on the shared cores this was written on, whatever the design of
// the run; what does not follow it is bounded at a tenth or tighter.
// setup_s carries the largest bound, as the driver asks.
var EndToEnd = []MetricDef{
	{"setup_s", "s", "lower", 0.25},
	{"qps", "1/s", "higher", 0.25},
	{"p50_us", "us", "lower", 0.25},
	{"ttfr_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_query", "us", "lower", 0.25},
	{"allocs_per_query", "count", "lower", 0.02},
	{"rss_mb", "MB", "lower", 0.10},
	{"topk_agree", "ratio", "higher", 0.001},
}

// PerLayer lists the metrics a traced run reports, on every workload.
var PerLayer = []MetricDef{
	{Name: "analysis.tokens_us", Unit: "us", Better: "lower"},
	{Name: "selection.rank_us", Unit: "us", Better: "lower"},
	{Name: "selection.postings_per_query", Unit: "count", Better: "lower"},
	{Name: "selection.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "selection.patch_ms", Unit: "ms", Better: "lower"},
	{Name: "selection.merge_us", Unit: "us", Better: "lower"},
	{Name: "service.rank_us", Unit: "us", Better: "lower"},
	{Name: "service.rank_self_us", Unit: "us", Better: "lower"},
	{Name: "service.rank_hit_us", Unit: "us", Better: "lower"},
	{Name: "service.batch_us_per_query", Unit: "us", Better: "lower"},
	{Name: "service.http_us", Unit: "us", Better: "lower"},
	{Name: "service.http_self_us", Unit: "us", Better: "lower"},
	{Name: "service.http_batch_us_per_query", Unit: "us", Better: "lower"},
	{Name: "service.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "service.coalesced_ratio", Unit: "ratio", Better: "higher"},
	{Name: "service.sample_ms", Unit: "ms", Better: "lower"},
	{Name: "service.sample_self_ms", Unit: "ms", Better: "lower"},
	{Name: "service.sample_docs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "service.refresh_ms", Unit: "ms", Better: "lower"},
	{Name: "service.compiles_full", Unit: "count", Better: "lower"},
	{Name: "service.compiles_incremental", Unit: "count", Better: "higher"},
	{Name: "admission.admit_ns", Unit: "ns", Better: "lower"},
	{Name: "netsearch.rank_rtt_us", Unit: "us", Better: "lower"},
	{Name: "netsearch.rankstream_us_per_query", Unit: "us", Better: "lower"},
	{Name: "netsearch.rank_bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "netsearch.search_rtt_us", Unit: "us", Better: "lower"},
	{Name: "netsearch.fetch_rtt_us", Unit: "us", Better: "lower"},
	{Name: "netsearch.fetch_bytes_per_doc", Unit: "B", Better: "lower"},
	{Name: "netsearch.retries", Unit: "count", Better: "lower"},
	{Name: "cluster.scatter_us", Unit: "us", Better: "lower"},
	{Name: "cluster.scatter_self_us", Unit: "us", Better: "lower"},
	{Name: "cluster.stream_first_emit_us", Unit: "us", Better: "lower"},
	{Name: "cluster.stream_total_us", Unit: "us", Better: "lower"},
	{Name: "cluster.http_self_us", Unit: "us", Better: "lower"},
	{Name: "cluster.failovers", Unit: "count", Better: "lower"},
	{Name: "core.sample_ms", Unit: "ms", Better: "lower"},
	{Name: "core.queries_per_100docs", Unit: "count", Better: "lower"},
	{Name: "core.wasted_query_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.ctf_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.spearman_df", Unit: "ratio", Better: "higher"},
	{Name: "index.search_us", Unit: "us", Better: "lower"},
	{Name: "langmodel.normalize_ms", Unit: "ms", Better: "lower"},
	{Name: "store.put_ms", Unit: "ms", Better: "lower"},
	{Name: "client.p95_us", Unit: "us", Better: "lower"},
	{Name: "client.p99_us", Unit: "us", Better: "lower"},
	{Name: "client.p999_us", Unit: "us", Better: "lower"},
	{Name: "client.ttfr_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.self_us_per_request", Unit: "us", Better: "lower"},
	{Name: "host.alloc_kb_per_query", Unit: "KB", Better: "lower"},
	{Name: "host.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "host.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "host.ctx_switches_per_query", Unit: "count", Better: "lower"},
	{Name: "host.io_syscalls_per_query", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},
}
