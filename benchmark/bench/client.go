package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// conn is one keep-alive HTTP connection to the host: its transport may
// hold a single connection, so Workload.Conns conns are exactly that many
// sockets. Requests on a conn are serial.
type conn struct {
	base   string
	client *http.Client
}

func newConn(base string) *conn {
	return &conn{
		base: base,
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
	}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// errStatus is a response the host answered, with the wrong status.
type errStatus struct {
	code int
	body string
}

func (e errStatus) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// isShed reports whether err is the host's load-shed answer (429).
func isShed(err error) bool {
	var es errStatus
	return errors.As(err, &es) && es.code == http.StatusTooManyRequests
}

// do sends the request and returns the response body of a 200.
func (c *conn) do(req *http.Request) ([]byte, error) {
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	//lint:ignore errsink body close after a full read is best effort; a broken connection fails the next request
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, errStatus{resp.StatusCode, string(bytes.TrimSpace(body))}
	}
	return body, nil
}

// validRanking checks one ranking's shape: 1..K rows, named, with finite
// scores in descending order.
func validRanking(ranked []Ranked) error {
	if len(ranked) == 0 || len(ranked) > K {
		return fmt.Errorf("ranking of %d rows, want 1..%d", len(ranked), K)
	}
	for i, r := range ranked {
		if r.Name == "" || math.IsNaN(r.Score) || math.IsInf(r.Score, 0) {
			return fmt.Errorf("row %d is malformed: %+v", i, r)
		}
		if i > 0 && r.Score > ranked[i-1].Score {
			return fmt.Errorf("row %d scores above row %d", i, i-1)
		}
	}
	return nil
}

// rankPath is the request URI of a single rank, batchPayload the body of
// a batch; the in-process probes send the same.
func rankPath(query string) string {
	return "/rank?q=" + url.QueryEscape(query) + "&alg=" + Alg + "&k=" + strconv.Itoa(K)
}

func batchPayload(queries []string) ([]byte, error) {
	return json.Marshal(map[string]any{"queries": queries, "alg": Alg, "k": K})
}

// rank sends one GET /rank and validates the answer.
func (c *conn) rank(query string) ([]Ranked, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+rankPath(query), nil)
	if err != nil {
		return nil, err
	}
	body, err := c.do(req)
	if err != nil {
		return nil, err
	}
	var ranked []Ranked
	if err := json.Unmarshal(body, &ranked); err != nil {
		return nil, err
	}
	return ranked, validRanking(ranked)
}

func batchRequest(target string, queries []string) (*http.Request, error) {
	payload, err := batchPayload(queries)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, target, bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return req, nil
}

// batchItem is one query's outcome in a batch answer or a stream frame.
type batchItem struct {
	Index  int      `json:"index"`
	Ranked []Ranked `json:"ranked"`
	Error  string   `json:"error"`
}

func (it batchItem) valid() error {
	if it.Error != "" {
		return errors.New(it.Error)
	}
	return validRanking(it.Ranked)
}

// batch sends one buffered POST /rank/batch and validates every item.
func (c *conn) batch(queries []string) ([][]Ranked, error) {
	req, err := batchRequest(c.base+"/rank/batch", queries)
	if err != nil {
		return nil, err
	}
	body, err := c.do(req)
	if err != nil {
		return nil, err
	}
	var resp struct {
		Results  []batchItem `json:"results"`
		Degraded bool        `json:"degraded"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	if len(resp.Results) != len(queries) || resp.Degraded {
		return nil, fmt.Errorf("batch answer has %d items for %d queries (degraded=%v)",
			len(resp.Results), len(queries), resp.Degraded)
	}
	out := make([][]Ranked, len(queries))
	for i, it := range resp.Results {
		if err := it.valid(); err != nil {
			return nil, fmt.Errorf("batch item %d: %w", i, err)
		}
		out[i] = it.Ranked
	}
	return out, nil
}

// stream sends one POST /rank/batch?stream=1 and validates every NDJSON
// frame as it arrives: item frames in index order, each a valid ranking,
// then a done frame counting them. ttfr is the time from sending the
// request to having validated the first item frame.
func (c *conn) stream(queries []string) (out [][]Ranked, ttfr time.Duration, err error) {
	req, err := batchRequest(c.base+"/rank/batch?stream=1", queries)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	//lint:ignore errsink body close after a full read is best effort; a broken connection fails the next request
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body) // the status is the error; the body only describes it
		return nil, 0, errStatus{resp.StatusCode, string(bytes.TrimSpace(body))}
	}
	out = make([][]Ranked, 0, len(queries))
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	done := false
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if done {
			return nil, 0, errors.New("stream frame after the done frame")
		}
		var frame struct {
			batchItem
			Done     bool `json:"done"`
			Results  int  `json:"results"`
			Degraded bool `json:"degraded"`
		}
		if err := json.Unmarshal(line, &frame); err != nil {
			return nil, 0, fmt.Errorf("bad stream frame %q: %w", line, err)
		}
		if frame.Done {
			if frame.Results != len(out) || frame.Degraded {
				return nil, 0, fmt.Errorf("done frame counts %d results after %d items (degraded=%v)",
					frame.Results, len(out), frame.Degraded)
			}
			done = true
			continue
		}
		if frame.Index != len(out) {
			return nil, 0, fmt.Errorf("stream item %d arrived at position %d", frame.Index, len(out))
		}
		if err := frame.valid(); err != nil {
			return nil, 0, fmt.Errorf("stream item %d: %w", frame.Index, err)
		}
		out = append(out, frame.Ranked)
		if len(out) == 1 {
			ttfr = time.Since(t0)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if !done || len(out) != len(queries) {
		return nil, 0, fmt.Errorf("stream ended after %d of %d items (done=%v)", len(out), len(queries), done)
	}
	return out, ttfr, nil
}

// sampleStatus is the part of service.DBStatus the harness checks.
type sampleStatus struct {
	HasModel    bool `json:"has_model"`
	SampledDocs int  `json:"sampled_docs"`
}

// sample asks the host to (re-)sample one database from scratch.
func (c *conn) sample(name string, docs int, seed uint64, initialTerm string) (sampleStatus, error) {
	payload, err := json.Marshal(map[string]any{"docs": docs, "seed": seed, "initial_term": initialTerm})
	if err != nil {
		return sampleStatus{}, err
	}
	req, err := http.NewRequest(http.MethodPost,
		c.base+"/databases/"+url.PathEscape(name)+"/sample", bytes.NewReader(payload))
	if err != nil {
		return sampleStatus{}, err
	}
	body, err := c.do(req)
	if err != nil {
		return sampleStatus{}, err
	}
	var st sampleStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return sampleStatus{}, err
	}
	if !st.HasModel || st.SampledDocs < docs {
		return st, fmt.Errorf("sampling %s examined %d of %d documents (has_model=%v)",
			name, st.SampledDocs, docs, st.HasModel)
	}
	return st, nil
}

// send issues one rank request of the workload's shape and returns the
// rankings, one per query. ttfr is 0 unless the shape streams.
func (c *conn) send(shape Shape, queries []string) ([][]Ranked, time.Duration, error) {
	switch shape {
	case ShapeBatch:
		out, err := c.batch(queries)
		return out, 0, err
	case ShapeStream:
		return c.stream(queries)
	default:
		ranked, err := c.rank(queries[0])
		return [][]Ranked{ranked}, 0, err
	}
}
