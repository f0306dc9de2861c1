package netsearch

// Tests for the fetch group (Client.FetchAll) and the server's in-order
// pipelining rule behind it: a group is one write each way, its documents
// are the ones Fetch returns one by one, a refused id leaves the connection
// aligned, and a group cut anywhere by the transport is replayed whole.

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/faulty"
	"repro/internal/index"
	"repro/internal/telemetry"
)

// fetchIndex is a database of n short documents, each naming its id.
func fetchIndex(n int) *index.Index {
	docs := make([]corpus.Document, n)
	for i := range docs {
		docs[i] = corpus.Document{ID: i, Topic: i % 3, Title: fmt.Sprintf("title %d", i), Text: fmt.Sprintf("common document number%d", i)}
	}
	return index.Build(docs, analysis.Raw(), index.InQuery)
}

func TestFetchAllPipelined(t *testing.T) {
	ix := fetchIndex(200)
	c, near, far := countedPipe(t, ix, Options{})
	for _, k := range []int{1, 2, 4, 64, 150} {
		ids := make([]int, k)
		want := make([]corpus.Document, k)
		for i := range ids {
			ids[i] = (i*7 + k) % 200
			var err error
			if want[i], err = c.Fetch(ids[i]); err != nil {
				t.Fatal(err)
			}
		}
		sent, answered := near.writes.Load(), far.writes.Load()
		got, err := c.FetchAll(ids)
		if err != nil {
			t.Fatalf("FetchAll of %d: %v", k, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("FetchAll of %d differs from %d Fetches", k, k)
		}
		groups := int64((k + fetchGroup - 1) / fetchGroup)
		if n := near.writes.Load() - sent; n != groups {
			t.Errorf("FetchAll of %d: the client made %d writes, want %d", k, n, groups)
		}
		if n := far.writes.Load() - answered; n != groups {
			t.Errorf("FetchAll of %d: the server made %d writes, want %d", k, n, groups)
		}
	}
	if docs, err := c.FetchAll(nil); err != nil || len(docs) != 0 {
		t.Errorf("FetchAll of nothing = %v, %v", docs, err)
	}
}

// TestFetchAllHeldAnswersObeyTheByteCap: a group of heavy documents leaves in
// more than one write, at the cap, and still arrives whole and in order.
func TestFetchAllHeldAnswersObeyTheByteCap(t *testing.T) {
	docs := make([]corpus.Document, 8)
	for i := range docs {
		docs[i] = corpus.Document{ID: i, Text: strings.Repeat(fmt.Sprintf("word%d ", i), 2000)} // ≈12 KB
	}
	c, _, far := countedPipe(t, index.Build(docs, analysis.Raw(), index.InQuery), Options{})
	got, err := c.FetchAll([]int{0, 1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range docs {
		if got[i].Text != docs[i].Text {
			t.Fatalf("document %d arrived as another", i)
		}
	}
	// 8 × 12 KB against a 32 KiB cap: the third, sixth and last answers flush.
	if n := far.writes.Load(); n != 3 {
		t.Errorf("the server made %d writes for 96 KB of answers, want 3", n)
	}
}

func TestFetchAllRemoteErrorKeepsAlignment(t *testing.T) {
	reg := telemetry.NewRegistry()
	c, near, _ := countedPipe(t, fetchIndex(10), Options{Metrics: reg})
	docs, err := c.FetchAll([]int{0, 1, 99, 2, 77})
	if err == nil || !strings.Contains(err.Error(), "99") {
		t.Fatalf("FetchAll with an unknown id = %v, %v; want an error naming 99", docs, err)
	}
	if docs != nil {
		t.Errorf("a failed group returned %d documents", len(docs))
	}
	// The answers behind the refusal were read, not left for the next op.
	hits, err := c.Search("common", 3)
	if err != nil || len(hits) != 3 {
		t.Fatalf("Search after a refused group = %v, %v", hits, err)
	}
	doc, err := c.Fetch(4)
	if err != nil || doc.ID != 4 {
		t.Fatalf("Fetch after a refused group = %+v, %v", doc, err)
	}
	if n := reg.Snapshot().Counters["netsearch_conns_discarded_total"]; n != 0 {
		t.Errorf("netsearch_conns_discarded_total = %d, want 0", n)
	}
	if st := c.Stats(); st != (ClientStats{}) || c.isBroken() {
		t.Errorf("a refused id cost the connection: %+v", st)
	}
	if n := near.writes.Load(); n != 3 {
		t.Errorf("the client made %d writes for three operations", n)
	}
}

// cutConn delivers the first `after` bytes of its call-th Write and then
// drops the connection: a transport fault at a chosen byte of a chosen
// frame, where faulty.Conn always cuts a write in half.
type cutConn struct {
	net.Conn
	call, after int
	writes      int
}

func (c *cutConn) Write(p []byte) (int, error) {
	c.writes++
	if c.writes != c.call {
		return c.Conn.Write(p)
	}
	n, _ := c.Conn.Write(p[:min(c.after, len(p))])
	c.Conn.Close()
	return n, fmt.Errorf("write cut after %d bytes: %w", n, faulty.ErrInjected)
}

// TestChaosFetchAllGroupReplayedOnce cuts a group's one write after every
// possible byte count — inside the first frame, on each frame boundary,
// one short of the end. Whatever the server managed to read and answer,
// the client must replay the whole group exactly once on a fresh connection
// and return what an unfaulted run returns: no document twice, none missing.
func TestChaosFetchAllGroupReplayedOnce(t *testing.T) {
	ix := fetchIndex(50)
	srv, err := Serve(ix, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ids := []int{7, 41, 3, 19, 28}

	clean, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	want, err := clean.FetchAll(ids)
	if err != nil {
		t.Fatal(err)
	}
	groupBytes := len(appendFetches(nil, ids, ""))

	for after := 0; after < groupBytes; after++ {
		dials := 0
		client, err := DialWith(srv.Addr(), Options{
			Retry: fastRetry(3),
			DialFunc: func(addr string) (net.Conn, error) {
				conn, err := net.Dial("tcp", addr)
				if dials++; err != nil || dials > 1 {
					return conn, err
				}
				// The first connection's second write is the group.
				return &cutConn{Conn: conn, call: 2, after: after}, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.Search("common", 1); err != nil {
			t.Fatal(err)
		}
		got, err := client.FetchAll(ids)
		if err != nil {
			t.Fatalf("cut after %d of %d bytes: %v", after, groupBytes, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("cut after %d bytes: got %d documents %v, want the unfaulted %d", after, len(got), docIDs(got), len(want))
		}
		if st := client.Stats(); st != (ClientStats{Faults: 1, Redials: 1, Retries: 1}) {
			t.Errorf("cut after %d bytes: %+v, want one fault, one redial, one retry", after, st)
		}
		client.Close()
	}

	// A fault the retries cannot outlast surfaces as the transport's error.
	client, err := DialWith(srv.Addr(), Options{
		Retry: RetryPolicy{Attempts: 1},
		DialFunc: func(addr string) (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return &cutConn{Conn: conn, call: 1, after: groupBytes / 2}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if docs, err := client.FetchAll(ids); !errors.Is(err, faulty.ErrInjected) || docs != nil {
		t.Errorf("an unretried cut = %v, %v; want ErrInjected and no documents", docs, err)
	}
}

func docIDs(docs []corpus.Document) []int {
	ids := make([]int, len(docs))
	for i, d := range docs {
		ids[i] = d.ID
	}
	return ids
}

// oneFetchEach exposes only core.Database, hiding the client's FetchAll, so
// the sampler fetches a probe's documents one Fetch per id.
type oneFetchEach struct{ db core.Database }

func (o oneFetchEach) Search(query string, n int) ([]int, error) { return o.db.Search(query, n) }
func (o oneFetchEach) Fetch(id int) (corpus.Document, error)     { return o.db.Fetch(id) }

// TestSampleSameModelWithOrWithoutFetchAll: how a probe's documents arrive,
// in one fetch group or one fetch each, does not move the learned model.
func TestSampleSameModelWithOrWithoutFetchAll(t *testing.T) {
	ix := index.Build(corpus.Scaled(corpus.WSJ88(), 0.02).MustGenerate(), analysis.Database(), index.InQuery)
	cfg := core.Config{DocsPerQuery: 4, Selector: core.RandomLLM{}, Stop: core.StopAfterDocs(120), Seed: 7}
	var _ core.BatchFetcher = (*Client)(nil)
	learned := make([]uint64, 2)
	for i, wrap := range []func(*Client) core.Database{
		func(c *Client) core.Database { return c },
		func(c *Client) core.Database { return oneFetchEach{c} },
	} {
		c, _, _ := countedPipe(t, ix, Options{})
		res, err := core.Sample(wrap(c), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Docs < 120 {
			t.Fatalf("sampled %d documents, want at least 120", res.Docs)
		}
		learned[i] = res.Learned.Fingerprint()
	}
	if learned[0] != learned[1] {
		t.Errorf("learned model %#x through FetchAll, %#x one Fetch per id", learned[0], learned[1])
	}
}
