package netsearch

import (
	"bufio"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/index"
)

func startServer(t *testing.T, texts ...string) (*Server, *Client) {
	t.Helper()
	docs := make([]corpus.Document, len(texts))
	for i, txt := range texts {
		docs[i] = corpus.Document{ID: i, Text: txt}
	}
	ix := index.Build(docs, analysis.Raw(), index.InQuery)
	srv, err := Serve(ix, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c
}

func TestSearchAndFetchOverTCP(t *testing.T) {
	_, c := startServer(t, "apple pie recipe", "banana bread", "apple tart")
	ids, err := c.Search("apple", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("got %d ids, want 2", len(ids))
	}
	doc, err := c.Fetch(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(doc.Text, "apple") {
		t.Errorf("fetched wrong doc: %+v", doc)
	}
}

func TestFailedQueryOverTCP(t *testing.T) {
	_, c := startServer(t, "alpha beta")
	ids, err := c.Search("zzz", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Errorf("unknown term returned %v", ids)
	}
}

func TestFetchErrorPropagates(t *testing.T) {
	_, c := startServer(t, "alpha")
	if _, err := c.Fetch(99); err == nil {
		t.Error("out-of-range fetch did not error")
	}
}

func TestUnknownOpRejected(t *testing.T) {
	srv, _ := startServer(t, "alpha")
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	in := frameReader{br: bufio.NewReader(conn)}
	// Kind 0x7f names no op. Its payload is stepped over by length, the
	// answer is an error frame, and the connection serves the next request.
	frame := endFrame(append(beginFrame(nil, 0x7f), "explode"...), frameHeader)
	frame = appendRequest(frame, &request{Op: opSearch, Query: "alpha", N: 1})
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	resp, err := in.response()
	if err != nil {
		t.Fatal(err)
	}
	if resp.kind != kindError || !strings.Contains(resp.Error, "unknown op") {
		t.Errorf("response = %+v", resp)
	}
	if resp, err = in.response(); err != nil || resp.kind != kindIDs || len(resp.IDs) != 1 {
		t.Errorf("search after the unknown op = %+v, %v", resp, err)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, _ := startServer(t, "apple one", "apple two", "apple three")
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				ids, err := c.Search("apple", 3)
				if err != nil {
					errs <- err
					return
				}
				if _, err := c.Fetch(ids[j%len(ids)]); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestSamplingOverTCPMatchesLocal(t *testing.T) {
	// The whole point of the substrate: query-based sampling against a
	// remote database yields exactly what local sampling yields.
	profile := corpus.Profile{
		Name: "net", Docs: 150, SharedVocabSize: 500, SharedProb: 0.5,
		Topics:   []corpus.TopicSpec{{Name: "t", VocabSize: 2000, Weight: 1}},
		DocLenMu: 3.8, DocLenSigma: 0.4, MinDocLen: 10,
		ZipfS: 1.35, ZipfV: 2, Seed: 4,
	}
	docs := profile.MustGenerate()
	ix := index.Build(docs, analysis.Database(), index.InQuery)
	actual := ix.LanguageModel()

	srv, err := Serve(ix, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	cfg := core.DefaultConfig(actual, 50, 77)
	local, err := core.Sample(ix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := core.Sample(client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !local.Learned.Equal(remote.Learned) {
		t.Error("remote sampling diverged from local sampling")
	}
	if local.Queries != remote.Queries {
		t.Errorf("query counts differ: %d vs %d", local.Queries, remote.Queries)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, _ := startServer(t, "alpha")
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close errored: %v", err)
	}
}

func TestClientAfterServerClose(t *testing.T) {
	srv, c := startServer(t, "alpha")
	srv.Close()
	if _, err := c.Search("alpha", 1); err == nil {
		t.Error("search after server close should fail")
	}
}

func TestTotalHitsOverTCP(t *testing.T) {
	_, c := startServer(t, "apple pie", "apple tart", "banana")
	n, err := c.TotalHits("apple")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("TotalHits(apple) = %d, want 2", n)
	}
	n, err = c.TotalHits("zzz")
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("TotalHits(zzz) = %d, want 0", n)
	}
}

// plainDB implements core.Database without hit counting.
type plainDB struct{}

func (plainDB) Search(string, int) ([]int, error)  { return nil, nil }
func (plainDB) Fetch(int) (corpus.Document, error) { return corpus.Document{}, nil }

func TestTotalHitsUnsupported(t *testing.T) {
	srv, err := Serve(plainDB{}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.TotalHits("x"); err == nil {
		t.Error("count against a non-counting database should fail")
	}
}

func TestDialBadAddress(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("expected dial error")
	}
}
