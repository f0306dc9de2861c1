package serving

// Streaming batch rank: POST /rank/batch?stream=1 answers with one frame
// per query, flushed the moment that query's ranking completes, instead of
// buffering the whole batch — so a client's time-to-first-result is one
// query's latency, not the batch's. The frame format is NDJSON by default;
// a client sending "Accept: text/event-stream" gets the same frames as SSE
// data events. Each item frame carries its query's input index; the
// terminal frame is {"done":true,...} — its absence tells a client the
// stream was cut mid-flight.
//
// Whole-request refusals (bad algorithm, a tier that knows it has no
// models) arrive before the first frame and are answered as a plain JSON
// error with the usual status code, exactly like the buffered path. The
// request holds one admission ticket for the whole stream, released after
// the last flush.

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
)

// streamItem is one query's frame in a rank stream.
type streamItem struct {
	Index  int        `json:"index"`
	Ranked []RankedDB `json:"ranked,omitempty"`
	Error  string     `json:"error,omitempty"`
}

// streamDone is the terminal frame: Results counts the item frames sent,
// and Degraded mirrors the buffered response's flag.
type streamDone struct {
	Done     bool `json:"done"`
	Results  int  `json:"results"`
	Degraded bool `json:"degraded,omitempty"`
}

// streamRankBatch serves one POST /rank/batch?stream=1 request. The
// caller has already admitted the request and clamped k; the admission
// ticket's deferred Release fires after the stream's last flush.
func (s *surface) streamRankBatch(w http.ResponseWriter, r *http.Request, req batchRequest, k int, degraded bool) {
	reg := s.tier.Metrics()
	ctx := r.Context()
	flusher, _ := w.(http.Flusher)
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	// frame writes one frame — NDJSON, or an SSE data event when the client
	// asked for those — and flushes it. The response header goes out with
	// the first frame, so a refusal before any frame can still be answered
	// as a plain error.
	started := false
	frame := func(v any) error {
		if !started {
			started = true
			h := w.Header()
			h.Set("Content-Type", "application/x-ndjson")
			if sse {
				h.Set("Content-Type", "text/event-stream")
			}
			h.Set("Cache-Control", "no-cache")
			h.Set("X-Accel-Buffering", "no") // tell buffering proxies not to hold frames
			w.WriteHeader(http.StatusOK)
		}
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		// Prefix, body and terminator go out as they are: a formatted write
		// would box b and parse a format once per query.
		end := "\n"
		if sse {
			if _, err := io.WriteString(w, "data: "); err != nil {
				return err
			}
			end = "\n\n"
		}
		if _, err := w.Write(append(b, end...)); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	results := 0
	err := s.tier.RankStream(ctx, req.Queries, req.Alg, k, func(i int, it Item) error {
		if cerr := ctx.Err(); cerr != nil {
			return cerr // client disconnected; stop ranking for nobody
		}
		results++
		return frame(streamItem{Index: i, Ranked: it.Ranked, Error: it.Error})
	})
	if err != nil {
		if !started {
			// Whole-request refusal before any frame: answer like the
			// buffered path would.
			WriteFailure(w, err)
			return
		}
		// Mid-stream cut: the client is gone (context canceled or a write
		// failed). There is no one left to tell.
		reg.Counter(s.prefix + "_stream_aborts_total").Inc()
		return
	}
	if err := frame(streamDone{Done: true, Results: results, Degraded: degraded}); err != nil {
		reg.Counter(s.prefix + "_stream_aborts_total").Inc()
		return
	}
	reg.Counter(s.prefix + "_stream_ranks_total").Inc()
}
