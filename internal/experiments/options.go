package experiments

import (
	"time"

	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// Option configures the package-level experiment functions (the federation
// extensions, which are not Suite methods because they build their own
// databases).
type Option func(*options)

type options struct {
	workers int
	metrics *telemetry.Registry
}

// WithWorkers caps the number of concurrent sampling runs inside a
// package-level experiment. n <= 0 (the default) means one worker per CPU.
// Results are byte-identical at any setting: every database's sampling run
// has its own seed and results are collected in database order.
func WithWorkers(n int) Option {
	return func(o *options) { o.workers = n }
}

// WithMetrics routes a package-level experiment's wall time into reg
// under experiments_run_seconds{exp="…"} (nil, the default, records
// nothing). Timing goes through the registry's injectable clock — this
// package's output is golden and it never reads real time itself.
func WithMetrics(reg *telemetry.Registry) Option {
	return func(o *options) { o.metrics = reg }
}

// timeExp mirrors Suite.timeExp for the package-level experiments.
func (o options) timeExp(exp string, start time.Time) {
	o.metrics.Since(`experiments_run_seconds{exp="`+exp+`"}`, start)
}

// applyOptions resolves the option list.
func applyOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	o.workers = parallel.Workers(o.workers)
	return o
}
