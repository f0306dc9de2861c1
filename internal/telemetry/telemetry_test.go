package telemetry

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("x_total") != c {
		t.Fatal("second lookup returned a different counter")
	}
	g := r.Gauge("inflight")
	g.Add(2)
	g.Add(-1)
	if got := g.Value(); got != 1 {
		t.Fatalf("gauge = %d, want 1", got)
	}
	g.Set(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Counter("a").Inc()
	r.Gauge("b").Set(3)
	r.Histogram("c").Observe(0.5)
	r.SetClock(nil)
	sp := r.StartSpan("d")
	sp.End()
	r.Timer("e")()
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil registry wrote prometheus output: %q", buf.String())
	}
}

func TestCountersAreConcurrencySafe(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		//lint:ignore baregoroutine bounded test fan-out joined via wg below
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Counter("n_total").Inc()
				r.Histogram("h_seconds").Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n_total").Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Histogram("h_seconds").Snapshot().Count; got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	// 100 observations uniform over (0,1]: every quantile interpolates
	// inside the first bucket.
	for i := 0; i < 100; i++ {
		h.Observe(0.5)
	}
	if p50 := h.Quantile(0.5); p50 <= 0 || p50 > 1 {
		t.Fatalf("p50 = %v, want within (0,1]", p50)
	}
	// Push 100 more into (1,2]: the median moves into bucket 2's range.
	for i := 0; i < 100; i++ {
		h.Observe(1.5)
	}
	if p50 := h.Quantile(0.5); p50 < 0.5 || p50 > 2 {
		t.Fatalf("p50 after shift = %v, want in [0.5,2]", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 1 || p99 > 2 {
		t.Fatalf("p99 = %v, want in (1,2]", p99)
	}
	// Overflow clamps to the top finite bound.
	h2 := newHistogram([]float64{1})
	h2.Observe(100)
	if got := h2.Quantile(0.5); got != 1 {
		t.Fatalf("overflow quantile = %v, want clamp to 1", got)
	}
}

func TestSpanUsesInjectedClock(t *testing.T) {
	r := NewRegistry()
	clk := NewManualClock(time.Unix(1000, 0))
	r.SetClock(clk.Now)
	sp := r.StartSpan("op_seconds")
	clk.Advance(250 * time.Millisecond)
	if d := sp.End(); d != 250*time.Millisecond {
		t.Fatalf("span duration = %v, want 250ms", d)
	}
	// Second End must not double-observe.
	sp.End()
	snap := r.Histogram("op_seconds").Snapshot()
	if snap.Count != 1 {
		t.Fatalf("observations = %d, want 1", snap.Count)
	}
	if snap.Sum != 0.25 {
		t.Fatalf("sum = %v, want 0.25", snap.Sum)
	}
}

func TestSnapshotJSONIsDeterministic(t *testing.T) {
	build := func() string {
		r := NewRegistry()
		clk := NewManualClock(time.Unix(0, 0))
		r.SetClock(clk.Now)
		// Insertion order differs run to run only via map iteration;
		// registering in two different orders must not matter.
		r.Counter(`b_total{db="x"}`).Add(2)
		r.Counter("a_total").Inc()
		r.Gauge("g").Set(-4)
		h := r.HistogramBuckets("h_seconds", []float64{0.1, 1})
		h.Observe(0.05)
		h.Observe(0.5)
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := build(), build()
	if a != b {
		t.Fatalf("snapshot JSON not deterministic:\n%s\nvs\n%s", a, b)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(a), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if snap.Counters["a_total"] != 1 || snap.Counters[`b_total{db="x"}`] != 2 {
		t.Fatalf("counters wrong: %+v", snap.Counters)
	}
	if snap.Histograms["h_seconds"].Count != 2 {
		t.Fatalf("histogram count wrong: %+v", snap.Histograms["h_seconds"])
	}
}

func TestTraceIDsAreSequential(t *testing.T) {
	ids := NewTraceIDs("req")
	if a := ids.Next(); a != "req-000001" {
		t.Fatalf("first id = %q", a)
	}
	if b := ids.Next(); b != "req-000002" {
		t.Fatalf("second id = %q", b)
	}
}

func TestNewLoggerKeyValueOutput(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, slog.LevelInfo, false)
	lg.Info("sample start", TraceKey, "req-000007", "db", "wsj88")
	line := buf.String()
	for _, want := range []string{"msg=\"sample start\"", "trace=req-000007", "db=wsj88"} {
		if !strings.Contains(line, want) {
			t.Fatalf("log line %q missing %q", line, want)
		}
	}
	if strings.Contains(line, "time=") {
		t.Fatalf("log line %q contains a timestamp despite includeTime=false", line)
	}
	lg.Debug("below level")
	if strings.Contains(buf.String(), "below level") {
		t.Fatal("debug line emitted at info level")
	}
}
