package service

// What a warm GET /rank costs and writes through the service's HTTP
// handler, and who owns the rankings the read path hands out.

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// sinkWriter is an http.ResponseWriter that keeps the status and the byte
// count and allocates nothing per request, so an allocation count of a
// request through it is the handler's own.
type sinkWriter struct {
	header http.Header
	status int
	bytes  int
}

func (w *sinkWriter) Header() http.Header  { return w.header }
func (w *sinkWriter) WriteHeader(code int) { w.status = code }
func (w *sinkWriter) Write(p []byte) (int, error) {
	w.bytes += len(p)
	return len(p), nil
}

// TestHandlerRankAllocations pins what one GET /rank through Handler()
// allocates on a warm snapshot: the trace ID, the middleware's exchange,
// the request copy that carries its context, the unescaped query, the term
// key, the flight and the ranking.
func TestHandlerRankAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the scratch pool drops entries under -race")
	}
	svc, _ := sampledFixture(t)
	h := svc.Handler()
	req := httptest.NewRequest(http.MethodGet, "/rank?q=system+data+language&alg=cori&k=2", nil)
	w := &sinkWriter{header: make(http.Header)}
	serve := func() {
		clear(w.header)
		w.status, w.bytes = http.StatusOK, 0
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK || w.bytes == 0 {
			t.Fatalf("GET %s: status %d, %d bytes", req.URL, w.status, w.bytes)
		}
	}
	serve()
	got := testing.AllocsPerRun(200, serve)
	if want := 7.0; got != want {
		t.Fatalf("GET /rank allocates %.0f times per request, want %.0f", got, want)
	}
}

// TestAccessLogLine: a logger at Info gets one key=value line per request,
// in the text the middleware has always written.
func TestAccessLogLine(t *testing.T) {
	svc, reg := sampledFixture(t)
	reg.SetClock(telemetry.NewManualClock(time.Unix(0, 0)).Now)
	var buf bytes.Buffer
	svc.SetLogger(telemetry.NewLogger(&buf, slog.LevelInfo, false))
	h := svc.Handler()
	for _, target := range []string{"/rank?q=system+data&alg=cori&k=2", "/rank?alg=cori", "/nowhere"} {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, target, nil))
	}
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.Header.Set("X-Trace-Id", "caller's id")
	h.ServeHTTP(httptest.NewRecorder(), req)
	want := `level=INFO msg="http request" method=GET path=/rank status=200 elapsed=0s trace=req-000001
level=INFO msg="http request" method=GET path=/rank status=400 elapsed=0s trace=req-000002
level=INFO msg="http request" method=GET path=/nowhere status=404 elapsed=0s trace=req-000003
level=INFO msg="http request" method=GET path=/healthz status=200 elapsed=0s trace="caller's id"
`
	if got := buf.String(); got != want {
		t.Fatalf("access log:\n%s\nwant:\n%s", got, want)
	}
}

// TestRankedSlicesAreCallersOwn: a ranking handed out is its caller's
// alone. Concurrent identical ranks (flight followers, one of them a batch
// that repeats the query) and a batch that repeats a query under other
// spellings each overwrite every row they were given, and no other
// caller's ranking — nor the flight leader's — may change. Run under
// -race, a shared slice is also a reported race.
func TestRankedSlicesAreCallersOwn(t *testing.T) {
	svc, reg := sampledFixture(t)
	const q = "system data"
	want, err := svc.Rank(q, "cori", 0)
	if err != nil {
		t.Fatal(err)
	}
	same := func(got []RankedDB) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	// check holds every owner's rankings to want, then has each owner
	// overwrite its rows with a mark of its own and, once all have, checks
	// that each still carries its own.
	type owned struct{ rows [][]RankedDB }
	check := func(t *testing.T, owners []owned) {
		for _, o := range owners {
			for _, rows := range o.rows {
				if !same(rows) {
					t.Fatalf("a caller got %+v, want %+v", rows, want)
				}
			}
		}
		for i, o := range owners {
			for j, rows := range o.rows {
				for r := range rows {
					rows[r] = RankedDB{Name: "overwritten", Score: float64(i*100 + j)}
				}
			}
		}
		for i, o := range owners {
			for j, rows := range o.rows {
				for _, row := range rows {
					if row.Score != float64(i*100+j) {
						t.Fatalf("caller %d's ranking %d changed under another caller: %+v", i, j, row)
					}
				}
			}
		}
	}

	t.Run("followers", func(t *testing.T) {
		coalesced := reg.Counter(`service_rank_coalesced_total{scope="flight"}`)
		base := coalesced.Value()
		key := keyNow(svc, q, "cori", 0)
		f, leader := svc.flights.join(key)
		if !leader {
			t.Fatal("test could not lead the flight")
		}
		const ranks = 6
		owners := make([]owned, ranks+1)
		var wg sync.WaitGroup
		for i := 0; i < ranks; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ranked, err := svc.Rank(q, "cori", 0)
				if err != nil {
					t.Error(err)
				}
				owners[i].rows = [][]RankedDB{ranked}
			}(i)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			items, err := svc.RankBatch([]string{q, "DATA  system", q}, "cori", 0)
			if err != nil {
				t.Error(err)
				return
			}
			for _, it := range items {
				owners[ranks].rows = append(owners[ranks].rows, it.Ranked)
			}
		}()
		deadline := time.Now().Add(5 * time.Second)
		for coalesced.Value()-base < ranks+1 {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d callers joined the flight", coalesced.Value()-base, ranks+1)
			}
			time.Sleep(time.Millisecond)
		}
		led := append([]RankedDB(nil), want...)
		svc.flights.fulfill(key, f, led, nil)
		wg.Wait()
		if t.Failed() {
			return
		}
		check(t, owners)
		if !same(led) {
			t.Fatalf("the leader's ranking changed under its followers: %+v", led)
		}
	})

	t.Run("batch repeats", func(t *testing.T) {
		items, err := svc.RankBatch([]string{q, "system", "Data system", q, "system data."}, "cori", 0)
		if err != nil {
			t.Fatal(err)
		}
		var owners []owned
		for i, it := range items {
			if i == 1 {
				continue // a query of its own
			}
			owners = append(owners, owned{rows: [][]RankedDB{it.Ranked}})
		}
		check(t, owners)
	})
}
