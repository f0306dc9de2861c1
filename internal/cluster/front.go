package cluster

import (
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/admission"
	"repro/internal/netsearch"
	"repro/internal/serving"
	"repro/internal/telemetry"
)

// DefaultTripThreshold is the number of consecutive failed RPCs after
// which the front tier stops preferring a replica (its breaker opens).
// An open replica is still probed as a last resort — and any success
// closes the breaker again — mirroring the sampling fabric's half-open
// discipline.
const DefaultTripThreshold = 3

// Options configure a front tier.
type Options struct {
	// Net carries the fault tolerance every shard RPC inherits from the
	// netsearch fabric: per-op deadlines, retry/backoff policy, dial
	// hooks for fault injection, and metrics/logging.
	Net netsearch.Options
	// Metrics receives the scatter-path instruments:
	// cluster_scatter_seconds, cluster_shard_errors{shard=...},
	// cluster_failovers_total, cluster_breaker_trips_total. nil disables.
	Metrics *telemetry.Registry
	// Logger receives one line per failover and breaker transition. nil
	// discards.
	Logger *slog.Logger
	// Admission caps the requests in flight on the front's serving
	// surface (GET /rank, POST /rank/batch). The zero value disables
	// admission control entirely.
	Admission admission.Config
}

// replica is one shard process inside a slot, with the front's local
// view of its health. The breaker state is the front tier's own (a
// stateless front must not depend on shard-side state to route around a
// dead shard); it feeds the shared telemetry registry.
type replica struct {
	slot   int
	addr   string
	client *netsearch.Client // built by NewFront; dials and redials itself

	mu    sync.Mutex
	fails int  // consecutive RPC failures
	open  bool // breaker: deprioritize until a success
}

// ReplicaHealth is the front tier's view of one shard replica, exposed
// on GET /cluster for operators and tests.
type ReplicaHealth struct {
	Slot                int    `json:"slot"`
	Addr                string `json:"addr"`
	ConsecutiveFailures int    `json:"consecutive_failures,omitempty"`
	BreakerOpen         bool   `json:"breaker_open,omitempty"`
}

// Front is a stateless scatter-gather tier over a sharded selectd
// cluster: it owns no models and no registry, only the ring geometry,
// the replica addresses, and transient health — so any number of fronts
// can serve the same cluster and a restarted front is warm instantly.
//
// A rank query is scattered to every slot over the netsearch fabric
// (slots partition the database set, so all of them own part of the
// answer), each slot answering from its first healthy replica, and the
// partial rankings are fused with selection.MergeWeighted into one
// top-k. Registration routes by ring placement to the owning slot's
// replicas. All methods are safe for concurrent use.
type Front struct {
	ring    *Ring
	reps    [][]*replica // [slot][replica], configured failover order
	netOpts netsearch.Options
	reg     *telemetry.Registry
	logger  *slog.Logger
	gate    *admission.Gate  // nil unless Options.Admission enables it
	flights *serving.Flights // single ranks in flight
	epoch   atomic.Uint64    // topology epoch: bumped per register/unregister
}

// NewFront builds a front tier over the given slot topology: slots[i] is
// the replica address list of ring slot i, in failover-preference order.
// It builds one client per replica and dials none: each dials on its
// first RPC.
func NewFront(slots [][]string, opts Options) (*Front, error) {
	if len(slots) == 0 {
		return nil, fmt.Errorf("cluster: front needs at least one slot")
	}
	for i, reps := range slots {
		if len(reps) == 0 {
			return nil, fmt.Errorf("cluster: slot %d has no replica addresses", i)
		}
	}
	logger := opts.Logger
	if logger == nil {
		logger = telemetry.NopLogger()
	}
	f := &Front{
		ring:    NewRing(len(slots), 0, 0),
		reps:    make([][]*replica, len(slots)),
		netOpts: opts.Net,
		reg:     opts.Metrics,
		logger:  logger,
		gate:    admission.New(opts.Admission, opts.Metrics, "cluster"),
	}
	f.flights = serving.NewFlights("cluster", tier{f}.Metrics)
	if f.netOpts.Metrics == nil {
		f.netOpts.Metrics = opts.Metrics
	}
	for i, addrs := range slots {
		f.reps[i] = make([]*replica, len(addrs))
		for j, addr := range addrs {
			f.reps[i][j] = &replica{slot: i, addr: addr, client: netsearch.NewClient(addr, f.netOpts)}
		}
	}
	return f, nil
}

// ParseSlots parses a -shards topology spec: slots separated by commas,
// replicas within a slot separated by "|", e.g.
//
//	"h1:9001|h2:9001,h1:9002|h2:9002"
//
// is two slots with two replicas each.
func ParseSlots(spec string) ([][]string, error) {
	var slots [][]string
	for i, group := range strings.Split(spec, ",") {
		var reps []string
		for _, addr := range strings.Split(group, "|") {
			if addr = strings.TrimSpace(addr); addr != "" {
				reps = append(reps, addr)
			}
		}
		if len(reps) == 0 {
			return nil, fmt.Errorf("cluster: slot %d of spec %q has no replica addresses", i, spec)
		}
		slots = append(slots, reps)
	}
	if len(slots) == 0 {
		return nil, fmt.Errorf("cluster: empty topology spec")
	}
	return slots, nil
}

// Ring exposes the placement ring (read-only; the ring is immutable).
func (f *Front) Ring() *Ring { return f.ring }

// Health returns the front's view of every replica, slot-major — the
// per-shard health that also feeds the telemetry registry.
func (f *Front) Health() []ReplicaHealth {
	var out []ReplicaHealth
	for _, reps := range f.reps {
		for _, r := range reps {
			r.mu.Lock()
			out = append(out, ReplicaHealth{
				Slot: r.slot, Addr: r.addr,
				ConsecutiveFailures: r.fails, BreakerOpen: r.open,
			})
			r.mu.Unlock()
		}
	}
	return out
}

// Close releases every shard connection for good: a rank after Close
// fails with "client is closed".
func (f *Front) Close() error {
	var firstErr error
	for _, reps := range f.reps {
		for _, r := range reps {
			if err := r.client.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// Rank scatters the query to every slot, gathers the partial rankings,
// and fuses them into a single top-k (see scatter: a single rank is a
// batch of one). trace correlates the scattered frames with the
// originating request. A query no shard can use fails with ErrInvalid, a
// federation without models with ErrNoModels.
//
// Concurrent identical scatters share one flight
// (cluster_rank_coalesced_total{scope="flight"}); nothing outlives it, so
// every rank sees the shards' current models. The key carries the
// front-local topology epoch, bumped on every register/unregister routed
// through this front, so a rank that starts after a placement change never
// joins a scatter from before it. The front has no analyzer, so spelling
// variants of a query fly apart here and coalesce shard-side on the term
// key instead.
func (f *Front) Rank(query, alg string, k int, trace string) ([]netsearch.RankedDB, error) {
	key := serving.Key{Query: query, Alg: alg, K: k, Epoch: f.epoch.Load()}
	val, err := f.flights.Do(key, func() (ranked []netsearch.RankedDB, err error) {
		defer f.reg.Timer("cluster_scatter_seconds")()
		err = f.scatter([]string{query}, alg, k, trace, func(_ int, it serving.Item) error {
			switch {
			case it.Cold:
				return fmt.Errorf("cluster: %w", serving.ErrNoModels)
			case it.Error != "":
				// Per-query refusals are deterministic across shards (every
				// one analyzes the same way): the client's mistake.
				return fmt.Errorf("cluster: %s: %w", it.Error, serving.ErrInvalid)
			}
			ranked = it.Ranked
			return nil
		})
		return ranked, err
	})
	if err != nil {
		return nil, err
	}
	return append([]netsearch.RankedDB(nil), val...), nil
}

// callSlot runs one RPC against a slot, failing over across the slot's
// replicas: healthy ones first in configured order, then open-breaker
// ones as last-resort half-open probes. op runs once per attempted
// replica and captures its own result. A marked invalid-argument error
// aborts immediately — every replica would refuse the same way, so
// failover cannot help and the client gets its 400.
func (f *Front) callSlot(slot int, op func(c *netsearch.Client) error) error {
	reps := f.reps[slot]
	ordered := make([]*replica, 0, len(reps))
	var open []*replica
	for _, r := range reps {
		if r.breakerOpen() {
			open = append(open, r)
		} else {
			ordered = append(ordered, r)
		}
	}
	if len(ordered) > 0 && len(open) > 0 && open[0] == reps[0] {
		// The preferred replica sat behind an open breaker and was routed
		// around: that is a failover even if the healthy one answers.
		f.countFailover(slot, "breaker open")
	}
	ordered = append(ordered, open...)
	var lastErr error
	for i, r := range ordered {
		if i > 0 {
			f.countFailover(slot, fmt.Sprint(lastErr))
		}
		err := f.callReplica(r, op)
		if err == nil {
			return nil
		}
		if classified := classify(err); classified != err {
			// Marked by the shard as the client's mistake: deterministic
			// across replicas, so do not burn failovers or health on it.
			return classified
		}
		if errors.Is(err, netsearch.ErrStreamCanceled) {
			// The stream's consumer tore it down; the replica did nothing
			// wrong. No failover, no health penalty.
			return err
		}
		f.recordFailure(r, err)
		lastErr = err
	}
	return fmt.Errorf("cluster: slot %d: all %d replicas failed: %w", slot, len(ordered), lastErr)
}

// callReplica performs one RPC against one replica and updates its
// breaker state.
func (f *Front) callReplica(r *replica, op func(c *netsearch.Client) error) error {
	if err := op(r.client); err != nil {
		return err
	}
	r.mu.Lock()
	r.fails = 0
	wasOpen := r.open
	r.open = false
	r.mu.Unlock()
	if wasOpen {
		f.logger.Info("cluster breaker closed", "slot", r.slot, "replica", r.addr)
	}
	return nil
}

// breakerOpen reports the replica's breaker state.
func (r *replica) breakerOpen() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.open
}

// recordFailure books one failed RPC against the replica: the per-shard
// error counter, the consecutive-failure count, and — past the trip
// threshold — the breaker.
func (f *Front) recordFailure(r *replica, err error) {
	f.reg.Counter(`cluster_shard_errors{shard="` + shardLabel(r.slot, r.addr) + `"}`).Inc()
	r.mu.Lock()
	r.fails++
	tripped := r.fails >= DefaultTripThreshold && !r.open
	if tripped {
		r.open = true
	}
	fails := r.fails
	r.mu.Unlock()
	if tripped {
		f.reg.Counter("cluster_breaker_trips_total").Inc()
		f.logger.Warn("cluster breaker tripped",
			"slot", r.slot, "replica", r.addr, "consecutive_failures", fails)
	}
	f.logger.Debug("cluster shard rpc failed", "slot", r.slot, "replica", r.addr, "err", err.Error())
}

// countFailover books one routed-around replica.
func (f *Front) countFailover(slot int, why string) {
	f.reg.Counter("cluster_failovers_total").Inc()
	f.logger.Info("cluster failover", "slot", slot, "reason", why)
}

// shardLabel renders a slot/replica pair as a bounded Prometheus label
// value (addresses come from the operator's topology spec, never from
// clients, so cardinality is the cluster size).
func shardLabel(slot int, addr string) string {
	return telemetry.EscapeLabel(fmt.Sprintf("s%d/%s", slot, addr))
}
