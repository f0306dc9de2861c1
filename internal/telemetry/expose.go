package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Exposition: one registry, two wire formats. WriteJSON emits the
// Snapshot as JSON (map keys sorted by encoding/json — golden-testable);
// WritePrometheus emits the Prometheus text exposition format (version
// 0.0.4), grouping samples by metric family and iterating families and
// label sets in sorted order.

// EscapeLabel escapes a label value for the text format, which reserves
// three characters inside a quoted value: the backslash, the double quote
// and the newline. Callers that put a name they do not control into a
// metric name (a database, a shard address) pass it through here.
func EscapeLabel(v string) string { return labelEscaper.Replace(v) }

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// WriteJSON writes the registry's snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// splitName separates a metric name into its base and literal label set:
// `x_total{db="a"}` → ("x_total", `db="a"`). A name without braces has an
// empty label set.
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// family groups every metric of one kind sharing a base name.
type family struct {
	base    string
	kind    string // "counter", "gauge", "histogram"
	entries []familyEntry
}

type familyEntry struct {
	labels string
	value  int64             // counter/gauge
	hist   HistogramSnapshot // histogram
}

// families buckets a snapshot into sorted metric families.
func families(snap Snapshot) []family {
	byBase := map[string]*family{}
	add := func(name, kind string, e familyEntry) {
		base, labels := splitName(name)
		f := byBase[base]
		if f == nil {
			f = &family{base: base, kind: kind}
			byBase[base] = f
		}
		e.labels = labels
		f.entries = append(f.entries, e)
	}
	for name, v := range snap.Counters {
		add(name, "counter", familyEntry{value: v})
	}
	for name, v := range snap.Gauges {
		add(name, "gauge", familyEntry{value: v})
	}
	for name, h := range snap.Histograms {
		add(name, "histogram", familyEntry{hist: h})
	}
	out := make([]family, 0, len(byBase))
	for _, f := range byBase {
		sort.Slice(f.entries, func(i, j int) bool { return f.entries[i].labels < f.entries[j].labels })
		out = append(out, *f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].base < out[j].base })
	return out
}

// joinLabels merges a base label set with one extra label.
func joinLabels(labels, extra string) string {
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}

// formatBound renders a bucket bound the way Prometheus expects in `le`.
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range families(r.Snapshot()) {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.base, f.kind); err != nil {
			return err
		}
		for _, e := range f.entries {
			switch f.kind {
			case "histogram":
				cum := int64(0)
				for i, bound := range e.hist.Bounds {
					cum = e.hist.Cumulative[i]
					le := joinLabels(e.labels, `le="`+formatBound(bound)+`"`)
					if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", f.base, le, cum); err != nil {
						return err
					}
				}
				le := joinLabels(e.labels, `le="+Inf"`)
				if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", f.base, le, e.hist.Count); err != nil {
					return err
				}
				suffix := ""
				if e.labels != "" {
					suffix = "{" + e.labels + "}"
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", f.base, suffix, e.hist.Sum); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.base, suffix, e.hist.Count); err != nil {
					return err
				}
			default:
				name := f.base
				if e.labels != "" {
					name += "{" + e.labels + "}"
				}
				if _, err := fmt.Fprintf(w, "%s %d\n", name, e.value); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// ContentTypePrometheus is the content type of the text exposition format.
const ContentTypePrometheus = "text/plain; version=0.0.4; charset=utf-8"

// Handler serves the registry at a /metrics endpoint with Accept
// negotiation: a client whose Accept header names application/json gets
// the JSON snapshot, everything else (Prometheus scrapers send text/plain
// or */*) gets the text exposition format. `?format=json` and
// `?format=prometheus` override the header.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		if wantsJSON(req) {
			w.Header().Set("Content-Type", "application/json")
			r.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", ContentTypePrometheus)
		r.WritePrometheus(w)
	})
}

// wantsJSON decides the response format for Handler.
func wantsJSON(req *http.Request) bool {
	switch req.URL.Query().Get("format") {
	case "json":
		return true
	case "prometheus", "text":
		return false
	}
	for _, part := range strings.Split(req.Header.Get("Accept"), ",") {
		mt := strings.TrimSpace(strings.SplitN(part, ";", 2)[0])
		if mt == "application/json" {
			return true
		}
	}
	return false
}

// VarsHandler serves the registry as always-JSON, the /debug/vars
// (expvar) convention.
func VarsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		r.WriteJSON(w)
	})
}
