// Package serving is the one serving core of the selection service: the
// question "rank the databases for this query" (paper §1) asked through one
// seam and answered over one HTTP surface.
//
// The seam is Ranker. internal/service implements it over a compiled
// snapshot of learned language models, internal/cluster over a scatter to
// shard services; everything above it — admission, the JSON and streaming
// endpoints, status mapping, request telemetry — is written here once and
// parameterised by the tier it serves (NewHandler). Identical ranks in
// flight are computed once by the service, the one tier that analyzes a
// query into the terms it coalesces on; a front passes them through.
package serving

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/netsearch"
)

// RankedDB is one row of a selection ranking and Item one query's outcome
// inside a batch. Both are declared once, in netsearch (the lowest layer
// that carries them), so a ranking moves from a shard's scorer to the
// client's JSON without being copied between look-alike types.
type (
	RankedDB = netsearch.RankedDB
	Item     = netsearch.RankedBatch
)

// The serving sentinels. internal/service re-exports them under the same
// names (as the same values), so errors.Is works across every tier.
var (
	// ErrUnknownDatabase is returned for operations on unregistered names.
	ErrUnknownDatabase = errors.New("service: unknown database")
	// ErrInvalid marks arguments the caller got wrong (unknown metric or
	// algorithm, unusable query). The HTTP layer maps it to 400 rather
	// than blaming the upstream database with a 502.
	ErrInvalid = errors.New("invalid argument")
	// ErrNoModels is returned by a rank when no registered database has a
	// learned model yet. It is a service-state condition, not a client
	// mistake: the HTTP layer maps it to 503, and a cluster shard reports
	// an empty partial ranking instead of failing the whole scatter.
	ErrNoModels = errors.New("service: no databases have learned models yet")
	// ErrExists marks a registration of a name that is already registered.
	// The cluster front tier treats it as success so that replica-fan-out
	// registration is idempotent and a retry can heal a partial failure.
	ErrExists = errors.New("already registered")
)

// Ranker is the seam between a serving tier and everything that serves it.
type Ranker interface {
	// Rank answers one query.
	Rank(ctx context.Context, query, alg string, k int) ([]RankedDB, error)
	// RankStream ranks a batch that shares one algorithm and one k,
	// calling emit once per query, in input order, the moment that query's
	// ranking completes. Whole-request refusals (unknown algorithm, a tier
	// that already knows it has no models) are returned before the first
	// emit; per-query problems ride in the item. A non-nil error from emit
	// aborts the stream and is returned as-is. A tier that learns only
	// item by item that nothing has a model (the cluster front) marks such
	// items Cold. The request's trace ID rides in ctx (TraceFromContext).
	RankStream(ctx context.Context, queries []string, alg string, k int, emit func(i int, it Item) error) error
}

// RankBatch is the buffered form of RankStream: every item, in input
// order. A batch in which every item came back Cold is a federation
// without models, and fails whole with ErrNoModels, exactly as a single
// rank of it would.
func RankBatch(ctx context.Context, r Ranker, queries []string, alg string, k int) ([]Item, error) {
	items := make([]Item, len(queries))
	cold := 0
	err := r.RankStream(ctx, queries, alg, k, func(i int, it Item) error {
		items[i] = it
		if it.Cold {
			cold++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if cold > 0 && cold == len(items) {
		return nil, ErrNoModels
	}
	return items, nil
}

// traceKey is the context key the HTTP middleware stores the request's
// trace ID under.
type traceKey struct{}

// WithTrace returns ctx carrying a request trace ID.
func WithTrace(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceKey{}, id)
}

// TraceFromContext returns the trace ID the HTTP middleware assigned to
// this request ("" outside a traced request).
func TraceFromContext(ctx context.Context) string {
	id, _ := ctx.Value(traceKey{}).(string)
	return id
}

// ValidateName rejects database names that the HTTP API could never
// route back to: an empty name, or one made only of "/" (its path
// segment escapes to an empty string, so /databases/{name} can never
// address it for sampling or unregistration). The error wraps ErrInvalid
// so the HTTP layer answers 400.
func ValidateName(name string) error {
	if name == "" || strings.Trim(name, "/") == "" {
		return fmt.Errorf("service: unroutable database name %q: %w", name, ErrInvalid)
	}
	return nil
}
