package service

// Tests for the streaming batch surface (DESIGN.md §10): NDJSON and SSE
// framing over POST /rank/batch?stream=1, bit-identical equivalence of
// streamed vs buffered vs sequential rankings, whole-batch errors staying
// plain JSON, client-disconnect cleanup, deterministic cross-caller flight
// coalescing, leader panic recovery, and a -race chaos scenario of
// streams racing epoch swaps.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// streamFrame decodes any frame of a rank stream: item frames carry Index
// and Ranked/Error, the terminal frame carries Done/Results.
type streamFrame struct {
	Index   int        `json:"index"`
	Ranked  []RankedDB `json:"ranked"`
	Error   string     `json:"error"`
	Done    bool       `json:"done"`
	Results int        `json:"results"`
}

// readStream POSTs a batch with ?stream=1 and decodes every frame,
// stripping SSE framing when present.
func readStream(t *testing.T, url string, req batchRankRequest, accept string) (*http.Response, []streamFrame) {
	t.Helper()
	frames, resp, err := tryReadStream(url, req, accept)
	if err != nil {
		t.Fatal(err)
	}
	return resp, frames
}

func tryReadStream(url string, req batchRankRequest, accept string) ([]streamFrame, *http.Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, nil, err
	}
	hr, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if accept != "" {
		hr.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	var frames []streamFrame
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue // SSE event separator
		}
		line = strings.TrimPrefix(line, "data: ")
		var f streamFrame
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			return nil, nil, fmt.Errorf("bad frame %q: %w", line, err)
		}
		frames = append(frames, f)
	}
	return frames, resp, sc.Err()
}

// TestHTTPRankBatchStreamNDJSON pins the streamed wire format and the
// bit-identical property: every streamed row must equal the buffered
// RankBatch row exactly (names and math.Float64bits of scores — Go's JSON
// float64 round-trip is exact).
func TestHTTPRankBatchStreamNDJSON(t *testing.T) {
	svc, _ := sampledFixture(t)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	queries := []string{"system data", "the and of", "market stock", "system data"}
	resp, frames := readStream(t, ts.URL+"/rank/batch?stream=1",
		batchRankRequest{Queries: queries, Alg: "cori", K: 2}, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	if len(frames) != len(queries)+1 {
		t.Fatalf("got %d frames for %d queries (+done)", len(frames), len(queries))
	}
	done := frames[len(frames)-1]
	if !done.Done || done.Results != len(queries) {
		t.Fatalf("done frame: %+v", done)
	}
	want, err := svc.RankBatch(queries, "cori", 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range frames[:len(queries)] {
		if f.Index != i {
			t.Fatalf("frame %d carries index %d: streamed frames must arrive in input order", i, f.Index)
		}
		if f.Error != want[i].Error {
			t.Fatalf("frame %d error %q, buffered %q", i, f.Error, want[i].Error)
		}
		if len(f.Ranked) != len(want[i].Ranked) {
			t.Fatalf("frame %d: %d rows, buffered %d", i, len(f.Ranked), len(want[i].Ranked))
		}
		for j := range f.Ranked {
			if f.Ranked[j].Name != want[i].Ranked[j].Name ||
				math.Float64bits(f.Ranked[j].Score) != math.Float64bits(want[i].Ranked[j].Score) {
				t.Fatalf("frame %d row %d: streamed %+v != buffered %+v",
					i, j, f.Ranked[j], want[i].Ranked[j])
			}
		}
	}
	if frames[1].Error == "" {
		t.Error("stopword-only query should stream a per-item error frame")
	}
}

// TestHTTPRankBatchStreamSSE: an Accept: text/event-stream client gets the
// same frames as SSE data events.
func TestHTTPRankBatchStreamSSE(t *testing.T) {
	svc, _ := sampledFixture(t)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	resp, frames := readStream(t, ts.URL+"/rank/batch?stream=1",
		batchRankRequest{Queries: []string{"system data", "market"}, Alg: "cori", K: 2},
		"text/event-stream")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q, want text/event-stream", ct)
	}
	if len(frames) != 3 || !frames[2].Done || frames[2].Results != 2 {
		t.Fatalf("SSE frames: %+v", frames)
	}
}

// TestHTTPRankBatchStreamWholeBatchError: failures detected before the
// first frame answer as plain JSON errors with the buffered path's status.
func TestHTTPRankBatchStreamWholeBatchError(t *testing.T) {
	svc, _ := sampledFixture(t)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	for _, req := range []batchRankRequest{
		{Queries: []string{"data"}, Alg: "bogus-alg"},
		{Queries: nil, Alg: "cori"},
	} {
		resp := postJSON(t, ts.URL+"/rank/batch?stream=1", req, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%+v: status %d, want 400", req, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%+v: pre-stream error Content-Type = %q, want application/json", req, ct)
		}
	}
}

// TestHTTPRankBatchStreamDisconnect cancels the request mid-stream and
// asserts the server notices: the abort counter bumps, the admission
// ticket releases, and no flight is left in the coalescer.
func TestHTTPRankBatchStreamDisconnect(t *testing.T) {
	svc, reg := sampledFixture(t)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	// The stream's second query joins a flight the test leads, so the
	// server is deterministically blocked mid-stream — one frame out, the
	// rest pending — while the client disconnects.
	queries := []string{"system data", "market stock", "language model"}
	key := keyNow(svc, "market stock", "cori", 2)
	f, leader := svc.flights.join(key)
	if !leader {
		t.Fatal("test could not lead the blocking flight")
	}
	body, err := json.Marshal(batchRankRequest{Queries: queries, Alg: "cori", K: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/rank/batch?stream=1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	// Read the first frame, then walk away mid-stream.
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()
	// Give the disconnect a moment to propagate to the server's context,
	// then unblock the stream: its next emit must see the dead client.
	time.Sleep(50 * time.Millisecond)
	svc.flights.fulfill(key, f, []RankedDB{{Name: "x"}}, nil)

	aborts := reg.Counter("service_stream_aborts_total")
	deadline := time.Now().Add(5 * time.Second)
	for aborts.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never recorded the stream abort")
		}
		time.Sleep(time.Millisecond)
	}
	if got := svc.flights.inflight(); got != 0 {
		t.Errorf("coalescer holds %d flights after disconnect, want 0", got)
	}
	if got := reg.Gauge("service_rank_flights_inflight").Value(); got != 0 {
		t.Errorf("in-flight gauge = %d after disconnect, want 0", got)
	}
	if got := svc.gate.Load().InFlight(); got != 0 {
		t.Errorf("admission in-flight = %d after disconnect, want 0", got)
	}
}

// TestBatchJoinsForeignFlight is the deterministic cross-caller
// coalescing test: a flight led elsewhere (here: by the test) is joined by
// a batch item with the same key, which blocks until the leader fulfills
// and then fans out the leader's exact value.
func TestBatchJoinsForeignFlight(t *testing.T) {
	svc, reg := sampledFixture(t)
	key := keyNow(svc, "system data", "cori", 2)
	f, leader := svc.flights.join(key)
	if !leader {
		t.Fatal("test could not lead the flight")
	}

	coalesced := reg.Counter(`service_rank_coalesced_total{scope="flight"}`)
	type result struct {
		items []BatchItem
		err   error
	}
	done := make(chan result, 1)
	go func() {
		items, err := svc.RankBatch([]string{"system data"}, "cori", 2)
		done <- result{items, err}
	}()
	// The follower bumps the coalesce counter before blocking on the
	// flight; once we see it, fulfill with a sentinel value.
	deadline := time.Now().Add(5 * time.Second)
	for coalesced.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("batch item never joined the foreign flight")
		}
		time.Sleep(time.Millisecond)
	}
	want := []RankedDB{{Name: "sentinel", Score: 42}}
	svc.flights.fulfill(key, f, want, nil)

	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if len(r.items) != 1 || r.items[0].Error != "" ||
		len(r.items[0].Ranked) != 1 || r.items[0].Ranked[0] != want[0] {
		t.Fatalf("follower item = %+v, want the leader's %+v", r.items, want)
	}
	// The emitted slice is a copy, not the flight's backing array.
	r.items[0].Ranked[0].Name = "mutated"
	if want[0].Name != "sentinel" {
		t.Error("batch item aliased the flight's value")
	}
}

// TestFlightErrorNotServedToLaterCallers: an errored flight reaches its
// concurrent followers and no one else — the next identical request
// computes fresh and succeeds.
func TestFlightErrorNotServedToLaterCallers(t *testing.T) {
	svc, reg := sampledFixture(t)
	key := keyNow(svc, "system data", "cori", 2)
	f, leader := svc.flights.join(key)
	if !leader {
		t.Fatal("test could not lead the flight")
	}
	coalesced := reg.Counter(`service_rank_coalesced_total{scope="flight"}`)
	done := make(chan []BatchItem, 1)
	go func() {
		items, err := svc.RankBatch([]string{"system data"}, "cori", 2)
		if err != nil {
			t.Errorf("follower batch failed whole: %v", err)
		}
		done <- items
	}()
	deadline := time.Now().Add(5 * time.Second)
	for coalesced.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("batch item never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}
	svc.flights.fulfill(key, f, nil, errors.New("leader exploded"))
	items := <-done
	if items == nil || items[0].Error != "leader exploded" {
		t.Fatalf("concurrent follower item = %+v, want the flight's error", items)
	}
	// A later identical request must not inherit the failure.
	fresh, err := svc.RankBatch([]string{"system data"}, "cori", 2)
	if err != nil {
		t.Fatal(err)
	}
	if fresh[0].Error != "" || len(fresh[0].Ranked) == 0 {
		t.Fatalf("later caller inherited the errored flight: %+v", fresh[0])
	}
}

// TestRankBatchLeaderPanicRecovery: a panicking leader fulfills its flight
// with an error before re-panicking, so followers never block forever.
func TestRankBatchLeaderPanicRecovery(t *testing.T) {
	svc, _ := sampledFixture(t)
	flights := svc.flights
	key := keyNow(svc, "system data", "cori", 2)
	computing, release := make(chan struct{}), make(chan struct{})
	propagated := make(chan bool, 1)
	go func() {
		defer func() { propagated <- recover() != nil }()
		flights.do(key, func() ([]RankedDB, error) {
			close(computing)
			<-release
			// nil snapshot makes rankSnapshot panic inside the leader.
			return svc.rankSnapshot(nil, nil, nil, nil, 2), nil
		})
	}()
	<-computing
	f, leader := flights.join(key)
	if leader {
		t.Fatal("test led a flight that already has a leader")
	}
	close(release)
	if !<-propagated {
		t.Error("leader panic did not propagate")
	}
	if _, err := f.wait(); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("flight error = %v, want a rank-panicked error", err)
	}
	if flights.inflight() != 0 {
		t.Fatalf("inflight = %d after panic, want 0", flights.inflight())
	}
}

// keyNow builds the coalescer key the serving path would use for this
// query right now (current epoch, canonical algorithm spelling).
func keyNow(svc *Service, query, alg string, k int) flightKey {
	terms := svc.analyzer.Tokens(query)
	return flightKey{
		Query: strings.Join(terms, "\x1f"),
		Alg:   alg,
		K:     k,
		Epoch: svc.snapshot().epoch,
	}
}

// TestChaosStreamCoalesceEpochSwap races streamed batches (with heavy
// within-batch duplication), single ranks, and epoch-bumping resamples.
// Under -race this is the proof that the coalescer and the streaming
// surface never cross epochs or leak flights.
func TestChaosStreamCoalesceEpochSwap(t *testing.T) {
	svc, dbs := fixture(t, nil)
	reg := telemetry.NewRegistry()
	svc.SetMetrics(reg)
	for _, db := range dbs {
		if _, err := svc.Sample(db.Name, SampleOptions{Docs: 40, Seed: 3}); err != nil {
			t.Fatal(err)
		}
	}

	const rounds = 40
	queries := []string{"system data", "market stock", "system data", "data", "system data"}
	var wg sync.WaitGroup
	// Streamers: RankBatchStream with duplicated queries, checking order.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				next := 0
				err := svc.RankBatchStream(queries, "cori", 2, func(j int, item BatchItem) error {
					if j != next {
						return fmt.Errorf("frame %d arrived out of order (want %d)", j, next)
					}
					next++
					if item.Error != "" {
						return fmt.Errorf("item %d errored: %s", j, item.Error)
					}
					return nil
				})
				if err != nil {
					t.Errorf("streamer %d: %v", r, err)
					return
				}
			}
		}(r)
	}
	// Single-path readers share flights with the streamers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds*2; i++ {
			if _, err := svc.Rank("system data", "cori", 2); err != nil {
				t.Errorf("reader: %v", err)
				return
			}
		}
	}()
	// Writer: epoch swaps underneath everyone.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds/4; i++ {
			if _, err := svc.Sample(dbs[i%len(dbs)].Name, SampleOptions{Docs: 20, Seed: uint64(i + 5)}); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	if got := svc.flights.inflight(); got != 0 {
		t.Fatalf("coalescer holds %d flights after the dust settled, want 0", got)
	}
	if dups := reg.Counter(`service_rank_coalesced_total{scope="batch"}`).Value(); dups != 3*rounds*2 {
		t.Errorf(`scope="batch" coalesce counter = %d, want %d (2 dups x %d batches x 3 streamers)`,
			dups, 3*rounds*2, 3*rounds)
	}
}
