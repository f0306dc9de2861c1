package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/admission"
	"repro/internal/serving"
)

// HTTP API. The rank surface — /rank, /rank/batch (buffered and streamed),
// /healthz, /metrics, /debug/vars — is the serving core's, shared with the
// cluster front (internal/serving); on top of it the service exposes its
// registry and sampler, so a selection service can run as a standalone
// daemon (cmd/selectd):
//
//	GET    /databases                      -> []DBStatus
//	POST   /databases                      {"name":"x","addr":"host:port"}
//	DELETE /databases/{name}
//	POST   /databases/{name}/sample        SampleOptions (all optional)
//	GET    /databases/{name}/summary?metric=avg-tf&k=20
//
// A sampling request's trace ID is propagated down through the netsearch
// wire protocol so remote-side logs correlate with the originating request.

// Handler returns the HTTP handler for the service.
func (s *Service) Handler() http.Handler {
	return serving.NewHandler(tier{&s.reader}, "service", map[string]string{"status": "ok"}, func(mux *http.ServeMux) {
		mux.HandleFunc("/databases", s.handleDatabases)
		mux.HandleFunc("/databases/", s.handleDatabase)
	})
}

// tier adapts the read path's pinned method signatures to the serving
// seam. Metrics is promoted from *reader as is.
type tier struct{ *reader }

func (t tier) Rank(_ context.Context, query, alg string, k int) ([]RankedDB, error) {
	return t.reader.Rank(query, alg, k)
}

func (t tier) RankStream(_ context.Context, queries []string, alg string, k int, emit func(int, BatchItem) error) error {
	return t.RankBatchStream(queries, alg, k, emit)
}

func (t tier) Logger() *slog.Logger  { return t.log() }
func (t tier) Gate() *admission.Gate { return t.gate.Load() }

func (s *Service) handleDatabases(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		serving.WriteJSON(w, http.StatusOK, s.Databases())
	case http.MethodPost:
		name, addr, ok := serving.DecodeRegistration(w, r)
		if !ok {
			return
		}
		if err := s.Register(name, addr); err != nil {
			serving.WriteErr(w, http.StatusConflict, err)
			return
		}
		serving.WriteJSON(w, http.StatusCreated, map[string]string{"registered": name})
	default:
		serving.WriteErr(w, http.StatusMethodNotAllowed, errors.New("GET or POST"))
	}
}

// handleDatabase routes /databases/{name}[/sample|/summary]. Routing
// works on the escaped path so a database name containing "/" (sent as
// %2F) stays one segment; the name is unescaped before lookup.
func (s *Service) handleDatabase(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.EscapedPath(), "/databases/")
	parts := strings.SplitN(rest, "/", 2)
	name, err := url.PathUnescape(parts[0])
	if err != nil {
		serving.WriteErr(w, http.StatusBadRequest, fmt.Errorf("bad database name %q: %w", parts[0], err))
		return
	}
	if name == "" {
		serving.WriteErr(w, http.StatusNotFound, errors.New("missing database name"))
		return
	}
	action := ""
	if len(parts) == 2 {
		action = parts[1]
	}
	switch {
	case action == "" && r.Method == http.MethodDelete:
		if err := s.Unregister(name); err != nil {
			serving.WriteFailure(w, err)
			return
		}
		serving.WriteJSON(w, http.StatusOK, map[string]string{"deleted": name})
	case action == "sample" && r.Method == http.MethodPost:
		var opts SampleOptions // an empty body means default options
		if !serving.DecodeBody(w, r, &opts) {
			return
		}
		// The run inherits the request's trace ID; the service pushes it
		// down to the netsearch frames the run sends.
		opts.TraceID = serving.TraceFromContext(r.Context())
		st, err := s.Sample(name, opts)
		if err != nil {
			serving.WriteFailure(w, err)
			return
		}
		serving.WriteJSON(w, http.StatusOK, st)
	case action == "summary" && r.Method == http.MethodGet:
		q := r.URL.Query()
		k, err := serving.ParseK(q.Get("k"))
		if err != nil {
			serving.WriteFailure(w, err)
			return
		}
		rows, err := s.Summary(name, q.Get("metric"), k)
		if err != nil {
			serving.WriteFailure(w, err)
			return
		}
		serving.WriteJSON(w, http.StatusOK, rows)
	default:
		serving.WriteErr(w, http.StatusNotFound, errors.New("unknown endpoint"))
	}
}
