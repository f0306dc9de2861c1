package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []Span{
		{Name: "http", Req: 0, StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "service", Req: 0, StartNs: 100, EndNs: 170, Parent: 0},
		{Name: "analysis", Req: 0, StartNs: 170, EndNs: 180, Parent: 1},
		{Name: "selection", Req: 0, StartNs: 180, EndNs: 220, Parent: 1},
		// A request whose children, timed in calls of their own, add up
		// to more than the parent did: self time is 0, not negative.
		{Name: "http", Req: 1, StartNs: 300, EndNs: 350, Parent: -1},
		{Name: "service", Req: 1, StartNs: 350, EndNs: 420, Parent: 4},
	}
	if got := SelfTimes(spans, "http"); len(got) != 2 || got[0] != 30 || got[1] != 0 {
		t.Errorf("http self times = %v, want [30 0]", got)
	}
	if got := SelfTimes(spans, "service"); len(got) != 2 || got[0] != 20 || got[1] != 70 {
		t.Errorf("service self times = %v, want [20 70]", got)
	}
	if got := Durations(spans, "selection"); len(got) != 1 || got[0] != 40 {
		t.Errorf("selection durations = %v, want [40]", got)
	}
	for _, name := range []string{"http", "service", "analysis", "selection"} {
		for _, self := range SelfTimes(spans, name) {
			if self < 0 {
				t.Errorf("%s has negative self time %v", name, self)
			}
		}
	}
}

func TestRecorderAndTraceFile(t *testing.T) {
	var off *Recorder
	off.End(off.Begin("x", 0, -1)) // a nil recorder records nothing and does not panic
	if off.Spans() != nil {
		t.Fatal("nil recorder returned spans")
	}
	rec := NewRecorder()
	parent := rec.Begin("service.http", 3, -1)
	child := rec.Begin("service.rank", 3, parent)
	rec.End(child)
	rec.End(parent)
	spans := rec.Spans()
	if len(spans) != 2 || spans[1].Parent != parent || spans[0].EndNs < spans[1].EndNs {
		t.Fatalf("recorded %+v", spans)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := WriteTrace(path, "rank_uniq", 9, spans); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.Workload != "rank_uniq" || tf.Seed != 9 || len(tf.Names) != 2 || len(tf.Spans) != 2 ||
		tf.Spans[1][1] != 3 || tf.Spans[1][4] != int64(parent) {
		t.Fatalf("trace file round trip: %+v", tf)
	}
}
