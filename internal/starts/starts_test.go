package starts

import (
	"errors"
	"testing"

	"repro/internal/langmodel"
)

func testModel() *langmodel.Model {
	m := langmodel.New()
	m.AddDocument([]string{"apple", "apple", "bear"})
	m.AddDocument([]string{"apple", "cat"})
	return m
}

func TestCooperativeExportsCopy(t *testing.T) {
	orig := testModel()
	p := Cooperative{Model: orig}
	got, err := p.Export()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(orig) {
		t.Error("export differs from model")
	}
	got.AddDocument([]string{"mutation"})
	if orig.Contains("mutation") {
		t.Error("export aliases provider's model")
	}
}

func TestCooperativeNilModel(t *testing.T) {
	if _, err := (Cooperative{}).Export(); err == nil {
		t.Error("nil model export should fail")
	}
}

func TestNoncooperativeRefuses(t *testing.T) {
	if _, err := (Noncooperative{}).Export(); !errors.Is(err, ErrRefused) {
		t.Errorf("got %v, want ErrRefused", err)
	}
}

func TestLiarInflatesBait(t *testing.T) {
	m := testModel()
	liar := Liar{Model: m, Bait: []string{"bear", "invented"}, Factor: 10}
	got, err := liar.Export()
	if err != nil {
		t.Fatal(err)
	}
	if got.CTF("bear") != 10*m.CTF("bear") {
		t.Errorf("bear ctf = %d, want %d", got.CTF("bear"), 10*m.CTF("bear"))
	}
	// df stays consistent with the claimed document count.
	if got.DF("bear") > got.Docs() {
		t.Errorf("df %d exceeds docs %d: lie not internally consistent", got.DF("bear"), got.Docs())
	}
	if !got.Contains("invented") {
		t.Error("invented bait term missing")
	}
	// Non-bait terms untouched.
	if got.CTF("apple") != m.CTF("apple") {
		t.Error("liar modified non-bait term")
	}
	// The true model is never mutated.
	if m.Contains("invented") {
		t.Error("liar mutated its true model")
	}
}

func TestLiarDefaultFactor(t *testing.T) {
	liar := Liar{Model: testModel(), Bait: []string{"zebra"}}
	got, err := liar.Export()
	if err != nil {
		t.Fatal(err)
	}
	if got.CTF("zebra") < 99 {
		t.Errorf("default lie too small: ctf = %d", got.CTF("zebra"))
	}
}

func TestLiarNilModel(t *testing.T) {
	if _, err := (Liar{}).Export(); err == nil {
		t.Error("nil model liar should fail")
	}
}

func TestAcquirePartitionsResults(t *testing.T) {
	providers := []Provider{
		Cooperative{Model: testModel()},
		Noncooperative{},
		Liar{Model: testModel(), Bait: []string{"bait"}},
	}
	models, failures := Acquire(providers)
	if len(models) != 2 {
		t.Errorf("acquired %d models, want 2", len(models))
	}
	if len(failures) != 1 {
		t.Errorf("got %d failures, want 1", len(failures))
	}
	if _, ok := models[0]; !ok {
		t.Error("cooperative provider missing from results")
	}
	if err := failures[1]; !errors.Is(err, ErrRefused) {
		t.Errorf("failure 1 = %v", err)
	}
}
