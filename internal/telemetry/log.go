package telemetry

import (
	"context"
	"io"
	"log/slog"
)

// Structured logging. The repository logs key=value lines via log/slog's
// TextHandler — machine-parseable, greppable, and stable enough to assert
// on in tests. Correlation happens through the "trace" attribute: the
// HTTP layer mints a trace ID per request (TraceIDs), hands it down
// through SampleOptions, and the netsearch/STARTS wire layers carry it on
// every frame, so one grep strings together an entire sampling run across
// processes. Per-request log sites call LogAttrs with typed attributes
// (slog.String, slog.Int, …): on a disabled level that costs one Enabled
// check and no allocation.

// TraceKey is the canonical log attribute for request trace IDs.
const TraceKey = "trace"

// NewLogger returns a key=value (slog.TextHandler) logger writing to w at
// the given level. Timestamps are dropped when includeTime is false so
// log output can be golden-tested.
func NewLogger(w io.Writer, level slog.Level, includeTime bool) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	if !includeTime {
		opts.ReplaceAttr = func(groups []string, a slog.Attr) slog.Attr {
			if a.Key == slog.TimeKey && len(groups) == 0 {
				return slog.Attr{}
			}
			return a
		}
	}
	return slog.New(slog.NewTextHandler(w, opts))
}

// NopLogger returns a logger that discards everything — the default for
// instrumented packages when no logger is injected, so call sites never
// nil-check. It is disabled at every level, so a log call on it formats
// nothing.
func NopLogger() *slog.Logger {
	return slog.New(discardHandler{})
}

// discardHandler is a slog.Handler enabled at no level.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }
