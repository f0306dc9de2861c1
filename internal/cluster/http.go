package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/admission"
	"repro/internal/netsearch"
	"repro/internal/serving"
	"repro/internal/telemetry"
)

// Front HTTP API. The rank surface — /rank, /rank/batch (buffered and
// streamed), /healthz, /metrics, /debug/vars — is the serving core's, the
// very handlers a single-process selectd serves (internal/serving), here
// answered by scatter-gather. What the front adds is registration routing
// and its own view of the cluster:
//
//	POST   /databases        {"name":"x","addr":"host:port"}
//	                         (routed to the owning slot's replicas)
//	DELETE /databases/{name} (routed likewise)
//	GET    /cluster          -> topology + per-replica health
//
// Sampling stays shard-side: replicas sample their registered databases
// through their own HTTP APIs with identical seeds, which (sampling
// being deterministic) keeps replica models byte-identical.

// Handler returns the front tier's HTTP handler.
func (f *Front) Handler() http.Handler {
	health := map[string]any{"status": "ok", "role": "front", "slots": f.ring.Slots()}
	return serving.NewHandler(tier{f}, "cluster", health, func(mux *http.ServeMux) {
		mux.HandleFunc("/databases", f.handleDatabases)
		mux.HandleFunc("/databases/", f.handleDatabase)
		mux.HandleFunc("/cluster", func(w http.ResponseWriter, r *http.Request) {
			serving.WriteJSON(w, http.StatusOK, map[string]any{
				"slots":    f.ring.Slots(),
				"replicas": f.Health(),
			})
		})
	})
}

// tier adapts the front's pinned method signatures to the serving seam:
// the trace ID the seam carries in ctx is the trace argument here.
type tier struct{ *Front }

func (t tier) Rank(ctx context.Context, query, alg string, k int) ([]netsearch.RankedDB, error) {
	return t.Front.Rank(query, alg, k, serving.TraceFromContext(ctx))
}

func (t tier) RankStream(ctx context.Context, queries []string, alg string, k int, emit func(int, serving.Item) error) error {
	return t.RankBatchStream(queries, alg, k, serving.TraceFromContext(ctx), emit)
}

func (t tier) Metrics() *telemetry.Registry { return t.reg }
func (t tier) Logger() *slog.Logger         { return t.logger }
func (t tier) Gate() *admission.Gate        { return t.gate }

func (f *Front) handleDatabases(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		serving.WriteErr(w, http.StatusMethodNotAllowed, errors.New("POST only (listing is served by the shards)"))
		return
	}
	name, addr, ok := serving.DecodeRegistration(w, r)
	if !ok {
		return
	}
	slot := f.ring.Owner(name)
	if err := f.registerOnSlot(slot, name, addr); err != nil {
		serving.WriteFailure(w, err)
		return
	}
	serving.WriteJSON(w, http.StatusCreated, map[string]any{"registered": name, "slot": slot})
}

func (f *Front) handleDatabase(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.EscapedPath(), "/databases/")
	name, err := url.PathUnescape(rest)
	if err != nil {
		serving.WriteErr(w, http.StatusBadRequest, fmt.Errorf("bad database name %q: %w", rest, err))
		return
	}
	if name == "" || r.Method != http.MethodDelete {
		serving.WriteErr(w, http.StatusNotFound, errors.New("unknown endpoint (shard-local operations are served by the shards)"))
		return
	}
	slot := f.ring.Owner(name)
	if err := f.unregisterOnSlot(slot, name); err != nil {
		serving.WriteFailure(w, err)
		return
	}
	serving.WriteJSON(w, http.StatusOK, map[string]any{"deleted": name, "slot": slot})
}

// registerOnSlot places a database on every replica of its owning slot.
// "Already registered" from a replica counts as success, so the call is
// idempotent and a retry heals a previous partial failure instead of
// conflicting with it.
func (f *Front) registerOnSlot(slot int, name, addr string) error {
	_, err := f.onSlot(slot, "register", name, serving.ErrExists, func(c *netsearch.Client) error {
		return c.RegisterDB(name, addr)
	})
	return err
}

// unregisterOnSlot removes a database from every replica of its owning
// slot. Only when every replica reports the name unknown does the front
// answer 404; one replica knowing it means a previous partial state is
// being healed.
func (f *Front) unregisterOnSlot(slot int, name string) error {
	unknown, err := f.onSlot(slot, "unregister", name, serving.ErrUnknownDatabase, func(c *netsearch.Client) error {
		return c.UnregisterDB(name)
	})
	if err == nil && unknown == len(f.reps[slot]) {
		return fmt.Errorf("cluster: %q on slot %d: %w", name, slot, serving.ErrUnknownDatabase)
	}
	return err
}

// onSlot runs one registry operation against every replica of a slot, in
// order, stopping at the first failure. A replica answering with the
// benign sentinel (the state the operation wanted was already there) is
// not a failure; such answers are counted. The client's own mistake
// (ErrInvalid) stops the operation without costing the replica health.
func (f *Front) onSlot(slot int, verb, name string, benign error, op func(*netsearch.Client) error) (nBenign int, err error) {
	for _, r := range f.reps[slot] {
		switch err := classify(op(r.client)); {
		case err == nil:
		case errors.Is(err, benign):
			nBenign++
		default:
			if !errors.Is(err, serving.ErrInvalid) {
				f.recordFailure(r, err)
			}
			return nBenign, fmt.Errorf("cluster: %s %q on slot %d replica %s: %w", verb, name, slot, r.addr, err)
		}
	}
	return nBenign, nil
}
