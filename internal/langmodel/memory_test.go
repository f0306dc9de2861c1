package langmodel_test

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/langmodel"
	"repro/internal/loadgen"
)

// TestModelBytesPerTerm: a model read from QBLM1 holds each term once — its
// bytes, one order entry, its stats and an int32 index slot — so the 512
// models of the benchmark's federation cost under 52 live bytes a term
// (88 when every term was also a map slot).
func TestModelBytesPerTerm(t *testing.T) {
	models, _ := loadgen.SyntheticModels(512, 0xbe7c)
	files := make([][]byte, len(models))
	terms := 0
	for i, m := range models {
		var buf bytes.Buffer
		if _, err := m.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		files[i] = buf.Bytes()
		terms += m.VocabSize()
	}
	models = nil
	loaded := make([]*langmodel.Model, len(files))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, f := range files {
		m, err := langmodel.ReadBinary(bytes.NewReader(f))
		if err != nil {
			t.Fatal(err)
		}
		loaded[i] = m
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(files)
	runtime.KeepAlive(loaded)
	perTerm := float64(after.HeapAlloc-before.HeapAlloc) / float64(terms)
	t.Logf("%d models, %d terms: %.1f live bytes a term", len(loaded), terms, perTerm)
	if perTerm >= 52 {
		t.Errorf("loaded models hold %.1f bytes a term, want under 52", perTerm)
	}
}
