package netsearch

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
)

// fakeShard is a servable that implements the cluster capability
// interfaces (StreamBatchRanker, Registrar) on top of a trivial registry.
type fakeShard struct {
	registered map[string]string
	ranked     []RankedDB
	rankErr    error          // whole-stream refusal, before any item
	perItemErr map[int]string // index -> streamed item error
}

func (f *fakeShard) Search(query string, n int) ([]int, error) {
	return nil, errors.New("not a document database")
}

func (f *fakeShard) Fetch(id int) (corpus.Document, error) {
	return corpus.Document{}, errors.New("not a document database")
}

func (f *fakeShard) RankDBsStream(queries []string, alg string, k int, emit func(i int, item RankedBatch) error) error {
	if f.rankErr != nil {
		return f.rankErr
	}
	ranked := f.ranked
	if k > 0 && k < len(ranked) {
		ranked = ranked[:k]
	}
	for i := range queries {
		item := RankedBatch{Ranked: ranked}
		if msg, ok := f.perItemErr[i]; ok {
			item = RankedBatch{Error: msg}
		}
		if err := emit(i, item); err != nil {
			return err
		}
	}
	return nil
}

func (f *fakeShard) RegisterDB(name, addr string) error {
	if _, dup := f.registered[name]; dup {
		return fmt.Errorf("database %q already registered", name)
	}
	f.registered[name] = addr
	return nil
}

func (f *fakeShard) UnregisterDB(name string) error {
	if _, ok := f.registered[name]; !ok {
		return fmt.Errorf("unknown database %q", name)
	}
	delete(f.registered, name)
	return nil
}

func startShardServer(t *testing.T, shard core.Database) *Client {
	t.Helper()
	srv, err := Serve(shard, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestRankOpOverTCP(t *testing.T) {
	shard := &fakeShard{
		registered: map[string]string{},
		ranked: []RankedDB{
			{Name: "db-a", Score: 0.9},
			{Name: "db-b", Score: 0.4},
			{Name: "db-c", Score: 0.1},
		},
	}
	c := startShardServer(t, shard)
	got, err := c.RankDBs("apple pie", "cori", 2, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, shard.ranked[:2]) {
		t.Errorf("ranked = %+v, want %+v", got, shard.ranked[:2])
	}
}

func TestRankOpServerError(t *testing.T) {
	shard := &fakeShard{registered: map[string]string{}, rankErr: errors.New("invalid argument: bogus alg")}
	c := startShardServer(t, shard)
	if _, err := c.RankDBs("q", "bogus", 5, ""); err == nil || !strings.Contains(err.Error(), "invalid argument") {
		t.Errorf("rank error = %v, want the server-reported message", err)
	}
}

func TestRankOpUnsupported(t *testing.T) {
	// A plain document database does not implement StreamBatchRanker; the
	// server must answer with a clean error, not a dropped connection.
	_, c := startServer(t, "apple pie")
	if _, err := c.RankDBs("apple", "cori", 5, ""); err == nil || !strings.Contains(err.Error(), "rankstream unsupported") {
		t.Errorf("rank on non-ranker = %v", err)
	}
}

func TestRegisterUnregisterOpsOverTCP(t *testing.T) {
	shard := &fakeShard{registered: map[string]string{}}
	c := startShardServer(t, shard)
	if err := c.RegisterDB("db-x", "127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterDB("db-x", "127.0.0.1:1"); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate register error = %v", err)
	}
	if err := c.UnregisterDB("db-x"); err != nil {
		t.Fatal(err)
	}
	if err := c.UnregisterDB("db-x"); err == nil || !strings.Contains(err.Error(), "unknown database") {
		t.Errorf("double unregister error = %v", err)
	}
}
