package serving

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"

	"repro/internal/admission"
	"repro/internal/telemetry"
)

// The rank surface, served identically by every tier:
//
//	GET  /rank?q=apple+pie&alg=cori&k=5  -> []RankedDB
//	POST /rank/batch                     {"queries":[...],"alg":"cori","k":5}
//	                                     -> {"results":[{"ranked":[...]}...]}
//	POST /rank/batch?stream=1            same body -> NDJSON frames, one per
//	                                     query as it completes (SSE with
//	                                     Accept: text/event-stream)
//	GET  /healthz
//	GET  /metrics                        (when the tier has a registry; JSON
//	                                      or Prometheus text per Accept)
//	GET  /debug/vars                     (when the tier has a registry; JSON)
//
// Every request is assigned a trace ID (honoring an incoming X-Trace-Id
// header), echoed back in the response's X-Trace-Id header, logged, and
// carried in the request context down through the Ranker — onto the
// netsearch frames a front scatters or a sampling run sends — so
// remote-side logs correlate with the originating request.

// Tier is a serving tier as the HTTP surface sees it: the rank seam plus
// the tier's instruments. The instruments are asked for on every request,
// so installing a registry, logger or gate works whether it happens before
// or after NewHandler. A nil registry means no metrics endpoints and a nil
// gate admits everything; the logger is never nil (telemetry.NopLogger
// discards).
type Tier interface {
	Ranker
	Metrics() *telemetry.Registry
	Logger() *slog.Logger
	Gate() *admission.Gate
}

// MaxBatchQueries bounds one batch request; a larger batch is the
// client's mistake (400), not an invitation to unbounded work per
// admission slot.
const MaxBatchQueries = 1024

// MaxBodyBytes bounds every request body the surface decodes. A full
// batch of MaxBatchQueries queries fits with a kilobyte per query.
const MaxBodyBytes = 1 << 20

// surface is the rank surface of one tier; prefix names the tier's own
// counters.
type surface struct {
	tier   Tier
	prefix string
}

// NewHandler returns the tier's HTTP handler: the rank surface above, the
// tier's own endpoints as added by routes (nil for none), and the
// observability middleware around both. prefix names the tier in metric
// names ("service", "cluster" — the string admission.New takes); health is
// the GET /healthz body.
func NewHandler(tier Tier, prefix string, health any, routes func(mux *http.ServeMux)) http.Handler {
	s := &surface{tier: tier, prefix: prefix}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, health)
	})
	mux.HandleFunc("/rank", s.handleRank)
	mux.HandleFunc("/rank/batch", s.handleRankBatch)
	for path, expose := range map[string]func(*telemetry.Registry) http.Handler{
		"/metrics": telemetry.Handler, "/debug/vars": telemetry.VarsHandler,
	} {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			if reg := tier.Metrics(); reg != nil {
				expose(reg).ServeHTTP(w, r)
				return
			}
			http.NotFound(w, r)
		})
	}
	if routes != nil {
		routes(mux)
	}
	return s.instrument(mux)
}

// statusWriter records the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so streamed responses push each
// frame through the middleware instead of buffering until the handler
// returns.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// responseClass names the http_responses_total series by status class.
// Constant strings: the middleware runs on every request and must not
// format one.
var responseClass = [...]string{
	`http_responses_total{class="other"}`,
	`http_responses_total{class="1xx"}`,
	`http_responses_total{class="2xx"}`,
	`http_responses_total{class="3xx"}`,
	`http_responses_total{class="4xx"}`,
	`http_responses_total{class="5xx"}`,
}

// instrument wraps the mux with the observability middleware: trace ID
// assignment, per-status-class counters (http_responses_total and the
// 4xx/5xx satellites), request latency, and one structured log line per
// request.
func (s *surface) instrument(next http.Handler) http.Handler {
	traces := telemetry.NewTraceIDs("req")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reg, lg := s.tier.Metrics(), s.tier.Logger()
		trace := r.Header.Get("X-Trace-Id")
		if trace == "" {
			trace = traces.Next()
		}
		w.Header().Set("X-Trace-Id", trace)
		r = r.WithContext(WithTrace(r.Context(), trace))

		sp := reg.StartSpan("http_request_seconds")
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		d := sp.End()

		class := sw.status / 100
		if class < 1 || class > 5 {
			class = 0
		}
		reg.Counter("http_requests_total").Inc()
		reg.Counter(responseClass[class]).Inc()
		switch {
		case sw.status >= 500:
			reg.Counter("http_5xx_total").Inc()
		case sw.status >= 400:
			reg.Counter("http_4xx_total").Inc()
		}
		lg.Info("http request",
			"method", r.Method, "path", r.URL.Path, "status", sw.status,
			"elapsed", d, telemetry.TraceKey, trace)
	})
}

type httpError struct {
	Error string `json:"error"`
}

// WriteJSON answers with v as a JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// reply answers 200 with the ranking reply built in buf, closed by the
// newline every JSON body of the surface ends in — or, if the encoder
// refused the ranking, with that failure. Nothing of the status is written
// until the body exists, so a refused ranking is an error the client can
// read, not a 200 with nothing behind it.
func reply(w http.ResponseWriter, buf *encBuf, err error) {
	defer putBuf(buf)
	if err != nil {
		WriteFailure(w, err)
		return
	}
	buf.b = append(buf.b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.b) // a client that left mid-reply is the server's to notice, as it was under json.Encoder
}

// WriteErr answers with a JSON error body.
func WriteErr(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, httpError{Error: err.Error()})
}

// WriteFailure answers a failed operation with the status StatusFor maps
// its error to.
func WriteFailure(w http.ResponseWriter, err error) {
	WriteErr(w, StatusFor(err), err)
}

// StatusFor keeps blame where it belongs: the caller's mistakes are 400,
// unknown names 404, a federation that has not learned any models yet
// 503, and everything else — a snapshot compile failure, a slot whose
// replicas all failed — a 502 the caller can alert on. The cluster front
// tier's failover logic keys off the same distinction.
func StatusFor(err error) int {
	switch {
	case errors.Is(err, ErrUnknownDatabase):
		return http.StatusNotFound
	case errors.Is(err, ErrInvalid):
		return http.StatusBadRequest
	case errors.Is(err, ErrNoModels):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadGateway
	}
}

// DecodeBody decodes a JSON request body of at most MaxBodyBytes into v;
// an empty body leaves v at its zero value. On failure it has answered the
// request — 413 for an oversize body, 400 for anything else — and returns
// false.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes)).Decode(v)
	if err == nil || errors.Is(err, io.EOF) {
		return true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	WriteErr(w, status, err)
	return false
}

// ParseK reads a k query parameter: absent means 0 ("all"); anything that
// is not a non-negative integer is the caller's mistake.
func ParseK(raw string) (int, error) {
	if raw == "" {
		return 0, nil
	}
	k, err := strconv.Atoi(raw)
	if err != nil || k < 0 {
		return 0, fmt.Errorf("bad k %q (want a non-negative integer): %w", raw, ErrInvalid)
	}
	return k, nil
}

// admit passes the request through the tier's gate. A shed request has
// been answered — 429 with Retry-After: 1, one overload contract on every
// tier — and ok is false; otherwise the caller owes ticket.Release.
func (s *surface) admit(w http.ResponseWriter) (ticket admission.Ticket, ok bool) {
	if ticket, ok = s.tier.Gate().Admit(); !ok {
		w.Header().Set("Retry-After", "1")
		WriteJSON(w, http.StatusTooManyRequests, httpError{Error: "service overloaded, retry later"})
	}
	return ticket, ok
}

func (s *surface) handleRank(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteErr(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	ticket, ok := s.admit(w)
	if !ok {
		return
	}
	defer ticket.Release()
	q := r.URL.Query()
	k, err := ParseK(q.Get("k"))
	if err != nil {
		WriteFailure(w, err)
		return
	}
	ranked, err := s.tier.Rank(r.Context(), q.Get("q"), q.Get("alg"), k)
	if err != nil {
		WriteFailure(w, err)
		return
	}
	buf := getBuf()
	buf.b, err = appendRanked(buf.b, ranked)
	reply(w, buf, err)
}

// batchRequest is the POST /rank/batch body.
type batchRequest struct {
	Queries []string `json:"queries"`
	Alg     string   `json:"alg,omitempty"`
	K       int      `json:"k,omitempty"`
}

func (s *surface) handleRankBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteErr(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	var req batchRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	if n := len(req.Queries); n == 0 || n > MaxBatchQueries || req.K < 0 {
		WriteFailure(w, fmt.Errorf("batch of %d queries, k=%d (want 1 to %d queries, k >= 0): %w",
			n, req.K, MaxBatchQueries, ErrInvalid))
		return
	}
	// One batch holds one admission slot: the in-flight unit is the
	// request (what bounds memory and scatter fan-out), not the query.
	ticket, ok := s.admit(w)
	if !ok {
		return
	}
	defer ticket.Release()
	if stream := r.URL.Query().Get("stream"); stream == "1" || stream == "true" {
		s.streamRankBatch(w, r, req)
		return
	}
	items, err := RankBatch(r.Context(), s.tier, req.Queries, req.Alg, req.K)
	if err != nil {
		WriteFailure(w, err)
		return
	}
	buf := getBuf()
	buf.b, err = appendBatch(buf.b, items)
	reply(w, buf, err)
}

// DecodeRegistration reads a POST /databases body, {"name","addr"}. An
// empty (or "/"-only) name would register a database that
// /databases/{name} can never route to — it could never be sampled or
// unregistered over HTTP — so it is rejected up front, as is a missing
// address. On failure the request has been answered and ok is false.
func DecodeRegistration(w http.ResponseWriter, r *http.Request) (name, addr string, ok bool) {
	var req struct {
		Name string `json:"name"`
		Addr string `json:"addr"`
	}
	if !DecodeBody(w, r, &req) {
		return "", "", false
	}
	if req.Addr == "" {
		WriteErr(w, http.StatusBadRequest, errors.New("addr is required"))
		return "", "", false
	}
	if err := ValidateName(req.Name); err != nil {
		WriteFailure(w, err)
		return "", "", false
	}
	return req.Name, req.Addr, true
}
