package serving

// The ranking encoder against its specification. The structs below are the
// declarations encoding/json used to marshal on the rank surface; the hand
// encoder must produce their bytes, shape for shape, or refuse where
// encoding/json refuses.

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// batchResponse is the buffered POST /rank/batch reply.
type batchResponse struct {
	Results []Item `json:"results"`
}

// streamItem is one query's frame in a rank stream.
type streamItem struct {
	Index  int        `json:"index"`
	Ranked []RankedDB `json:"ranked,omitempty"`
	Error  string     `json:"error,omitempty"`
}

// streamDone is a rank stream's terminal frame.
type streamDone struct {
	Done    bool `json:"done"`
	Results int  `json:"results"`
}

// encoded is what WriteJSON put on the wire for v: json.Encoder's bytes,
// trailing newline included.
func encoded(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// sameBytes checks one reply shape: the appended bytes equal the reference
// encoding, or both refuse.
func sameBytes(t *testing.T, shape string, got []byte, gotErr error, want []byte, wantErr error) {
	t.Helper()
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: encoder error %v, encoding/json error %v", shape, gotErr, wantErr)
	}
	if gotErr == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s:\n got %s\nwant %s", shape, got, want)
	}
}

// checkShapes encodes one ranking and one error text through all four reply
// shapes, on top of bytes already in the buffer (a frame is appended behind
// the frames held before it).
func checkShapes(t *testing.T, ranked []RankedDB, errText string, index int) {
	t.Helper()
	const held = "held\n"
	strip := func(b []byte) []byte { return bytes.TrimPrefix(b, []byte(held)) }

	got, gotErr := appendRanked([]byte(held), ranked)
	want, wantErr := encoded(ranked)
	sameBytes(t, "GET /rank", append(strip(got), '\n'), gotErr, want, wantErr)

	items := []Item{{Ranked: ranked}, {Error: errText}, {Ranked: ranked, Error: errText}, {}}
	got, gotErr = appendBatch([]byte(held), items)
	want, wantErr = encoded(batchResponse{Results: items})
	sameBytes(t, "POST /rank/batch", append(strip(got), '\n'), gotErr, want, wantErr)

	for _, it := range items {
		got, gotErr = appendItem([]byte(held), index, it)
		want, wantErr = json.Marshal(streamItem{Index: index, Ranked: it.Ranked, Error: it.Error})
		sameBytes(t, "item frame", strip(got), gotErr, want, wantErr)
	}

	got = appendDone([]byte(held), index)
	want, wantErr = json.Marshal(streamDone{Done: true, Results: index})
	sameBytes(t, "done frame", strip(got), nil, want, wantErr)
}

// FuzzEncodeRanking: arbitrary names and error texts and arbitrary score
// bit patterns encode to the bytes encoding/json writes, for every reply
// shape. The seeds are one per class the encoder treats differently.
func FuzzEncodeRanking(f *testing.F) {
	for _, name := range []string{
		"db-a", "", `say "hi" \ there`, "line\nbreak\ttab\r\b\f", "nul\x00 and \x1f", "<script>&amp;</script>",
		"sep\u2028arators\u2029", "bad\xff\xfeutf8\xc0", "truncated \xe2\x80", "héllo wörld ✓ 日本語", "\x7f del",
	} {
		for _, score := range []float64{
			0, math.Copysign(0, -1), 0.4, 1.0 / 3, 1, -17, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, 1.5e300,
			math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
		} {
			f.Add(name, name+"!", math.Float64bits(score), 3)
		}
	}
	f.Fuzz(func(t *testing.T, name, errText string, bits uint64, index int) {
		if index < 0 { // a frame's index is a position in the request
			index = -(index + 1)
		}
		score := math.Float64frombits(bits)
		checkShapes(t, []RankedDB{{Name: name, Score: score}, {Name: errText, Score: -score}, {Name: name + errText, Score: score / 3}}, errText, index)
		checkShapes(t, []RankedDB{}, errText, index)
		checkShapes(t, nil, name, index)
	})
}

// TestRefusalLeavesNothingBehind: a refused frame can be cut back to where
// it began and replaced, which is how a stream reports it.
func TestRefusalLeavesNothingBehind(t *testing.T) {
	bad := Item{Ranked: []RankedDB{{Name: "db-a", Score: 0.5}, {Name: "db-b", Score: math.NaN()}}}
	b := []byte("held\n")
	mark := len(b)
	b, err := appendItem(b, 7, bad)
	if err != errScore {
		t.Fatalf("appendItem error = %v, want errScore", err)
	}
	b, err = appendItem(b[:mark], 7, Item{Error: err.Error()})
	if want := "held\n" + `{"index":7,"error":"` + errScore.Error() + `"}`; err != nil || string(b) != want {
		t.Errorf("replacement frame = %q, %v; want %q", b, err, want)
	}
}

func benchRows(n int) []RankedDB {
	rows := make([]RankedDB, n)
	for i := range rows {
		rows[i] = RankedDB{Name: "db" + strings.Repeat("x", i%7) + "-finance", Score: 0.4 + 1/float64(i+3)}
	}
	return rows
}

// TestEncodeRankingZeroAlloc holds the six encoders to their promise on a
// warm buffer: every reply shape, every class of string and score the
// encoder treats differently (FuzzEncodeRanking's seed classes), and every
// refusal of a non-finite score append without allocating. Between them the
// inputs run every statement of the encoder.
func TestEncodeRankingZeroAlloc(t *testing.T) {
	names := []string{
		"db-a", "", `say "hi" \ there`, "line\nbreak\ttab\r\b\f", "nul\x00 and \x1f", "<script>&amp;</script>",
		"sep\u2028arators\u2029", "bad\xff\xfeutf8\xc0", "héllo wörld ✓ 日本語",
	}
	scores := []float64{0, math.Copysign(0, -1), 0.4, -17, 1e-6, 9.99e-7, 1e-7, 1e21, 1.5e300, math.Inf(1), math.Inf(-1), math.NaN()}
	var rows []RankedDB
	for i, name := range names {
		rows = append(rows, RankedDB{Name: name, Score: scores[i%(len(scores)-3)]})
	}
	bad := append(rows[:2:2], RankedDB{Name: "db-nan", Score: math.NaN()})
	items := []Item{{Ranked: rows}, {Error: names[3]}, {Ranked: rows, Error: names[2]}, {}, {Ranked: []RankedDB{}}}
	refused := []Item{{Ranked: rows}, {Ranked: bad}}
	buf := make([]byte, 0, 1<<14)
	zero := func(what string, f func()) {
		t.Helper()
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocs a call, want 0", what, n)
		}
	}
	zero("appendString", func() {
		for _, s := range names {
			buf = appendString(buf[:0], s)
		}
	})
	zero("appendScore", func() {
		for _, f := range scores {
			var err error
			if buf, err = appendScore(buf[:0], f); (err != nil) != (math.IsNaN(f) || math.IsInf(f, 0)) {
				t.Fatalf("appendScore(%v): error %v", f, err)
			}
		}
	})
	zero("appendRanked", func() {
		for _, r := range [][]RankedDB{rows, nil, {}} {
			buf, _ = appendRanked(buf[:0], r)
		}
		if _, err := appendRanked(buf[:0], bad); err != errScore {
			t.Fatalf("appendRanked of a NaN score: error %v, want errScore", err)
		}
	})
	zero("appendItem", func() {
		for i, it := range items {
			buf, _ = appendItem(buf[:0], i-1, it)
		}
		if _, err := appendItem(buf[:0], 7, refused[1]); err != errScore {
			t.Fatalf("appendItem of a NaN score: error %v, want errScore", err)
		}
	})
	zero("appendBatch", func() {
		for _, its := range [][]Item{items, nil} {
			buf, _ = appendBatch(buf[:0], its)
		}
		if _, err := appendBatch(buf[:0], refused); err != errScore {
			t.Fatalf("appendBatch of a NaN score: error %v, want errScore", err)
		}
	})
	zero("appendDone", func() { buf = appendDone(buf[:0], 32) })
}

// BenchmarkEncodeRanking prices the three encodes of the read path on a
// warm buffer — one GET /rank reply of 10 rows, one buffered batch of 32
// such rankings, one NDJSON item frame. TestEncodeRankingZeroAlloc holds
// them at zero allocations.
func BenchmarkEncodeRanking(b *testing.B) {
	rows := benchRows(10)
	items := make([]Item, 32)
	for i := range items {
		items[i] = Item{Ranked: rows}
	}
	for _, bc := range []struct {
		name   string
		encode func(dst []byte) ([]byte, error)
	}{
		{"rank10", func(dst []byte) ([]byte, error) { return appendRanked(dst, rows) }},
		{"batch32x10", func(dst []byte) ([]byte, error) { return appendBatch(dst, items) }},
		{"frame10", func(dst []byte) ([]byte, error) { return appendItem(dst, 11, items[0]) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			buf, err := bc.encode(nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if buf, err = bc.encode(buf[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
