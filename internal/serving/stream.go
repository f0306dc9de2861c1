package serving

// Streaming batch rank: POST /rank/batch?stream=1 answers with one frame
// per query instead of buffering the whole batch — so a client's
// time-to-first-result is one query's latency, not the batch's. The frame
// format is NDJSON by default; a client sending "Accept: text/event-stream"
// gets the same frames as SSE data events. Each item frame carries its
// query's input index; the terminal frame is {"done":true,...} — its
// absence tells a client the stream was cut mid-flight.
//
// Frames leave in the doubling groups of netsearch.FlushDue, the one flush
// rule both streaming hops follow: the first frame is flushed alone, then
// frames 2–3 together, 4–7, 8–15, …, and the last item rides with the done
// frame. No frame waits longer than the stream had already been running,
// and a batch of n costs ⌊log₂ n⌋+1 chunks instead of n+1. Behind a front
// the groups coincide with the shards' (both count the same items), so the
// two hops do not add their delays.
//
// Whole-request refusals (bad algorithm, a tier that knows it has no
// models) arrive before the first frame and are answered as a plain JSON
// error with the usual status code, exactly like the buffered path. The
// request holds one admission ticket for the whole stream.

import (
	"net/http"
	"strings"

	"repro/internal/netsearch"
)

// frameStream is one streamed reply in flight: frames are appended to buf
// and written out when netsearch.FlushDue says so. The response header goes
// out with the first write, so a refusal before any item can still be
// answered as a plain error.
type frameStream struct {
	w       http.ResponseWriter
	flusher http.Flusher // nil when the writer cannot flush
	sse     bool         // frames are SSE data events, not NDJSON lines
	items   int          // item frames the stream will carry: one per query
	sent    int          // item frames appended so far
	started bool         // the header has been written
	buf     *encBuf
}

// begin and end bracket one frame in the buffer: an NDJSON line, or an SSE
// data event when the client asked for those.
func (st *frameStream) begin() []byte {
	if st.sse {
		return append(st.buf.b, "data: "...)
	}
	return st.buf.b
}

func (st *frameStream) end(b []byte) {
	if st.sse {
		b = append(b, '\n')
	}
	st.buf.b = append(b, '\n')
}

// item appends query i's frame and flushes when the rule says the group is
// complete. A ranking the encoder refuses becomes an item frame carrying the refusal:
// the neighbours still rank.
func (st *frameStream) item(i int, it Item) error {
	st.sent++
	b := st.begin()
	mark := len(b)
	b, err := appendItem(b, i, it)
	if err != nil {
		b, _ = appendItem(b[:mark], i, Item{Error: err.Error()}) // a frame without scores cannot be refused
	}
	st.end(b)
	if !netsearch.FlushDue(st.sent, st.items, len(st.buf.b)) {
		return nil
	}
	if err := st.write(); err != nil {
		return err
	}
	if st.flusher != nil {
		st.flusher.Flush()
	}
	return nil
}

// done appends the terminal frame and writes out everything held. It is
// not flushed: the handler returns next, and the server sends the frame in
// one write with the end of the response.
func (st *frameStream) done() error {
	st.end(appendDone(st.begin(), st.sent))
	return st.write()
}

// write hands the held frames to the response, behind the header if they
// are the first.
func (st *frameStream) write() error {
	if !st.started {
		st.started = true
		h := st.w.Header()
		h.Set("Content-Type", "application/x-ndjson")
		if st.sse {
			h.Set("Content-Type", "text/event-stream")
		}
		h.Set("Cache-Control", "no-cache")
		h.Set("X-Accel-Buffering", "no") // tell buffering proxies not to hold frames
		st.w.WriteHeader(http.StatusOK)
	}
	_, err := st.w.Write(st.buf.b)
	st.buf.b = st.buf.b[:0]
	return err
}

// streamRankBatch serves one POST /rank/batch?stream=1 request. The
// caller has already admitted the request; the admission ticket's
// deferred Release fires once the last frame is written.
func (s *surface) streamRankBatch(w http.ResponseWriter, r *http.Request, req batchRequest) {
	reg := s.tier.Metrics()
	ctx := r.Context()
	st := frameStream{
		w:     w,
		sse:   strings.Contains(r.Header.Get("Accept"), "text/event-stream"),
		items: len(req.Queries),
		buf:   getBuf(),
	}
	st.flusher, _ = w.(http.Flusher)
	defer putBuf(st.buf)
	err := s.tier.RankStream(ctx, req.Queries, req.Alg, req.K, func(i int, it Item) error {
		if cerr := ctx.Err(); cerr != nil {
			return cerr // client disconnected; stop ranking for nobody
		}
		return st.item(i, it)
	})
	if err != nil {
		if st.sent == 0 {
			// Whole-request refusal before any item: answer like the
			// buffered path would.
			WriteFailure(w, err)
			return
		}
		// Mid-stream cut. If the client is still there it was the tier that
		// failed, and the client is owed every item ranked before the cut;
		// the missing done frame tells it the rest is not coming. If the
		// client is gone there is no one left to tell. Either way the stream
		// is counted aborted, which is all a failure of this write could add.
		if ctx.Err() == nil {
			_ = st.write()
		}
		reg.Counter(s.prefix + "_stream_aborts_total").Inc()
		return
	}
	if err := st.done(); err != nil {
		reg.Counter(s.prefix + "_stream_aborts_total").Inc()
		return
	}
	reg.Counter(s.prefix + "_stream_ranks_total").Inc()
}
