package bench

import (
	"encoding/json"
	"os"
	"time"
)

// Span is one timed call into a layer. Req identifies the request (the
// query's or batch's position in the replayed stream) the call was made
// for; Parent is the index of the span of the layer that contains this
// one for the same request, or -1. The probes call each layer on its own,
// one after another, so a parent says which layer contains which, and a
// child's interval does not lie inside its parent's.
type Span struct {
	Name    string
	Req     int
	StartNs int64
	EndNs   int64
	Parent  int
}

// Recorder keeps spans in memory until the run ends. A nil Recorder
// records nothing, which is how the untraced half of the overhead
// measurement runs the same code.
type Recorder struct {
	t0    time.Time
	spans []Span
}

// NewRecorder starts an empty recorder; span times count from now.
func NewRecorder() *Recorder {
	return &Recorder{t0: time.Now()}
}

// Begin opens a span and returns its index, for End and for children to
// name as their parent.
func (r *Recorder) Begin(name string, req, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, Span{Name: name, Req: req, Parent: parent, StartNs: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

// End closes the span Begin returned.
func (r *Recorder) End(id int) {
	if r == nil {
		return
	}
	r.spans[id].EndNs = int64(time.Since(r.t0))
}

// Spans returns everything recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// Durations returns the duration in nanoseconds of every span called
// name, in recording order.
func Durations(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs))
		}
	}
	return out
}

// SelfTimes returns, for every span called name, its duration minus the
// durations of the spans that name it as their parent, in nanoseconds.
// The children were timed in calls of their own, so on a fast request
// their sum can exceed the parent by the timer's noise; self time is
// then 0, never negative.
func SelfTimes(spans []Span, name string) []float64 {
	children := make(map[int]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.EndNs - s.StartNs
		}
	}
	var out []float64
	for i, s := range spans {
		if s.Name != name {
			continue
		}
		self := s.EndNs - s.StartNs - children[i]
		if self < 0 {
			self = 0
		}
		out = append(out, float64(self))
	}
	return out
}

// traceFile is the on-disk form of a run's spans: names once, then one
// [name, req, start_ns, end_ns, parent] row per span.
type traceFile struct {
	Workload string     `json:"workload"`
	Seed     uint64     `json:"seed"`
	Columns  []string   `json:"columns"`
	Names    []string   `json:"names"`
	Spans    [][5]int64 `json:"spans"`
}

// WriteTrace writes the spans to path as JSON.
func WriteTrace(path, workload string, seed uint64, spans []Span) error {
	tf := traceFile{
		Workload: workload,
		Seed:     seed,
		Columns:  []string{"name", "req", "start_ns", "end_ns", "parent"},
		Spans:    make([][5]int64, len(spans)),
	}
	index := make(map[string]int64)
	for i, s := range spans {
		id, ok := index[s.Name]
		if !ok {
			id = int64(len(tf.Names))
			index[s.Name] = id
			tf.Names = append(tf.Names, s.Name)
		}
		tf.Spans[i] = [5]int64{id, int64(s.Req), s.StartNs, s.EndNs, int64(s.Parent)}
	}
	raw, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// rename changes a span's name once the call has shown which kind it was.
func (r *Recorder) rename(id int, name string) {
	if r != nil {
		r.spans[id].Name = name
	}
}

// dur is a closed span's duration in nanoseconds.
func (r *Recorder) dur(id int) int64 {
	return r.spans[id].EndNs - r.spans[id].StartNs
}
