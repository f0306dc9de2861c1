package cluster

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/netsearch"
	"repro/internal/service"
)

// Error markers carried in wire error strings between a shard and the
// front tier. The netsearch fabric transports errors as opaque text; the
// shard adapter prefixes the classes the front's failover logic must
// distinguish — a client mistake (no replica will answer differently, so
// failing over is pointless) versus an infrastructure failure (the next
// replica may well succeed). Both ends of the convention live in this
// package.
const (
	markInvalid = "EINVAL: "
	markExists  = "EEXIST: "
	markUnknown = "ENOENT: "
)

// Shard adapts a selection service to the netsearch fabric so a front
// tier can scatter to it: it implements core.Database (vacuously — a
// shard is not a document database), netsearch.StreamBatchRanker, and
// netsearch.Registrar. Serve it with ServeShard.
type Shard struct {
	svc *service.Service
}

// NewShard wraps a service for serving over netsearch.
func NewShard(svc *service.Service) *Shard { return &Shard{svc: svc} }

// ServeShard exposes svc's rank/register capabilities on addr over the
// netsearch wire protocol — the shard's way of joining the scatter
// fabric. The returned server is stopped with Close.
func ServeShard(svc *service.Service, addr string) (*netsearch.Server, error) {
	srv, err := netsearch.Serve(NewShard(svc), addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: shard listen %s: %w", addr, err)
	}
	return srv, nil
}

// Search implements core.Database. A shard serves database rankings, not
// documents; sampling traffic belongs on the registered databases
// themselves.
func (sh *Shard) Search(query string, n int) ([]int, error) {
	return nil, errors.New("cluster: shard is not a document database")
}

// Fetch implements core.Database.
func (sh *Shard) Fetch(id int) (corpus.Document, error) {
	return corpus.Document{}, errors.New("cluster: shard is not a document database")
}

// RankDBsStream implements netsearch.StreamBatchRanker: the shard-local
// half of a scattered rank. Each item is emitted the moment the service
// ranks it, so the front's fused stream never waits on the whole shard
// batch. A shard with no learned models yet answers every query with an
// empty partial ranking rather than an error — one cold shard must not
// fail the whole federation's query (the service raises ErrNoModels before
// its first emit, so no item has gone out yet). Invalid-argument errors
// come back marked so the front knows failover cannot help. Per-query
// problems ride in each item's Error, already plain text: the front passes
// them through to the matching item and never fails over on them. The
// front's single-query rank is a stream of one: a batch of one.
func (sh *Shard) RankDBsStream(queries []string, alg string, k int, emit func(i int, item netsearch.RankedBatch) error) error {
	err := sh.svc.RankBatchStream(queries, alg, k, emit)
	switch {
	case errors.Is(err, service.ErrNoModels):
		for i := range queries {
			if err := emit(i, netsearch.RankedBatch{}); err != nil {
				return err
			}
		}
		return nil
	case errors.Is(err, service.ErrInvalid):
		return errors.New(markInvalid + err.Error())
	}
	return err
}

// RegisterDB implements netsearch.Registrar.
func (sh *Shard) RegisterDB(name, addr string) error {
	err := sh.svc.Register(name, addr)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, service.ErrExists):
		return errors.New(markExists + err.Error())
	case errors.Is(err, service.ErrInvalid):
		return errors.New(markInvalid + err.Error())
	}
	return err
}

// UnregisterDB implements netsearch.Registrar.
func (sh *Shard) UnregisterDB(name string) error {
	err := sh.svc.Unregister(name)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, service.ErrUnknownDatabase):
		return errors.New(markUnknown + err.Error())
	}
	return err
}

var _ core.Database = (*Shard)(nil)
var _ netsearch.StreamBatchRanker = (*Shard)(nil)
var _ netsearch.Registrar = (*Shard)(nil)

// classify re-attaches the service sentinel matching a marked wire error,
// so the front tier can reuse the HTTP layer's statusFor-style mapping on
// errors that crossed the fabric as text. A remote error arrives as the
// shard's bare message, so a marker counts only at its start: the same
// text later in the message is part of a name, not a class.
func classify(err error) error {
	if err == nil {
		return nil
	}
	msg := err.Error()
	for _, m := range [...]struct {
		mark     string
		sentinel error
	}{
		{markInvalid, service.ErrInvalid},
		{markExists, service.ErrExists},
		{markUnknown, service.ErrUnknownDatabase},
	} {
		if rest, ok := strings.CutPrefix(msg, m.mark); ok {
			return fmt.Errorf("%s: %w", rest, m.sentinel)
		}
	}
	return err
}
