package experiments

import (
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/summarize"
)

func sampleBaselines() []*BaselineRun {
	return []*BaselineRun{
		{
			Corpus: "CACM",
			Points: []CurvePoint{
				{Docs: 50, PctLearned: 0.1, CtfRatio: 0.7, Spearman: 0.5, SpearmanSimple: 0.6},
				{Docs: 100, PctLearned: 0.2, CtfRatio: 0.8, Spearman: 0.6, SpearmanSimple: 0.8},
			},
			Rdiff:   []RdiffPoint{{Docs: 100, Rdiff: 0.01}},
			Queries: 30, Docs: 100,
		},
		{
			Corpus: "TREC123",
			Points: []CurvePoint{
				{Docs: 50, PctLearned: 0.01, CtfRatio: 0.5, Spearman: 0.3, SpearmanSimple: 0.4},
				{Docs: 100, PctLearned: 0.02, CtfRatio: 0.6, Spearman: 0.4, SpearmanSimple: 0.5},
				{Docs: 150, PctLearned: 0.03, CtfRatio: 0.7, Spearman: 0.5, SpearmanSimple: 0.6},
			},
			Rdiff:   []RdiffPoint{{Docs: 100, Rdiff: 0.02}, {Docs: 150, Rdiff: 0.015}},
			Queries: 40, Docs: 150,
		},
	}
}

func TestWriteTable1(t *testing.T) {
	var sb strings.Builder
	rows := []corpus.Stats{
		{Name: "CACM", Bytes: 100, Docs: 10, UniqueTerms: 5, TotalTerms: 50, Topics: 1},
	}
	if err := WriteTable1(&sb, rows); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Table 1", "CACM", "unique terms"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestWriteFigures1And2(t *testing.T) {
	runs := sampleBaselines()
	for name, fn := range map[string]func(*strings.Builder) error{
		"fig1a": func(sb *strings.Builder) error { return WriteFigure1a(sb, runs) },
		"fig1b": func(sb *strings.Builder) error { return WriteFigure1b(sb, runs) },
		"fig2":  func(sb *strings.Builder) error { return WriteFigure2(sb, runs) },
	} {
		var sb strings.Builder
		if err := fn(&sb); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out := sb.String()
		if !strings.Contains(out, "CACM") || !strings.Contains(out, "TREC123") {
			t.Errorf("%s missing corpora:\n%s", name, out)
		}
		// Short run pads missing rows with a dash.
		if !strings.Contains(out, "-") {
			t.Errorf("%s missing padding for ragged curves:\n%s", name, out)
		}
	}
}

func TestWriteTable2(t *testing.T) {
	var sb strings.Builder
	rows := []Table2Row{
		{Corpus: "CACM", N: 4, Docs: 120, SRCC: 0.9, Queries: 40},
		{Corpus: "CACM", N: 10, Docs: 0, SRCC: 0, Queries: 99}, // never crossed
	}
	if err := WriteTable2(&sb, rows); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "120") || !strings.Contains(out, "0.90") {
		t.Errorf("missing crossing row:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Errorf("missing dash for uncrossed row:\n%s", out)
	}
}

func TestWriteFigure3AndTable3(t *testing.T) {
	runs := []StrategyRun{
		{
			Strategy: "random-llm",
			Points: []CurvePoint{
				{Docs: 50, CtfRatio: 0.7, SpearmanSimple: 0.8},
			},
			Queries: 20, FailedQueries: 1, Docs: 50,
		},
		{
			Strategy: "random-olm",
			Points: []CurvePoint{
				{Docs: 50, CtfRatio: 0.75, SpearmanSimple: 0.85},
				{Docs: 100, CtfRatio: 0.8, SpearmanSimple: 0.9},
			},
			Queries: 45, FailedQueries: 20, Docs: 100,
		},
	}
	var sb strings.Builder
	if err := WriteFigure3a(&sb, runs); err != nil {
		t.Fatal(err)
	}
	if err := WriteFigure3b(&sb, runs); err != nil {
		t.Fatal(err)
	}
	if err := WriteTable3(&sb, runs); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"random-llm", "random-olm", "Failed queries", "45", "20"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestWriteFigure4(t *testing.T) {
	var sb strings.Builder
	if err := WriteFigure4(&sb, sampleBaselines()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "0.01000") || !strings.Contains(out, "0.01500") {
		t.Errorf("missing rdiff values:\n%s", out)
	}
}

func TestWriteTable4(t *testing.T) {
	var sb strings.Builder
	res := &Table4Result{
		Rows: []summarize.Row{
			{Term: "microsoft", DF: 10, CTF: 100, AvgTF: 10},
		},
		SeededFound: 1, DocsSampled: 300, Queries: 12,
	}
	if err := WriteTable4(&sb, res); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "microsoft") || !strings.Contains(out, "300 docs sampled") {
		t.Errorf("table 4 output wrong:\n%s", out)
	}
}

func TestWriteExtensions(t *testing.T) {
	var sb strings.Builder
	if err := WriteAgreement(&sb, []AgreementResult{
		{Algorithm: "cori", Points: []AgreementPoint{{SampleDocs: 50, Spearman: 0.5, Top3Overlap: 0.8}}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := WriteAdversarial(&sb, &AdversarialResult{
		Query: []string{"bait"}, LiarRankCooperative: 1, LiarRankSampled: 5, CoverageFailures: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if err := WriteStopping(&sb, []StoppingRow{
		{Corpus: "CACM", Docs: 150, CtfRatio: 0.8, Spearman: 0.9, FixedDocs: 300, FixedCtfRatio: 0.85, FixedSpearman: 0.95},
	}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"cori", "bait", "non-cooperation", "stopping rule", "150"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestWriteVarianceAndSizes(t *testing.T) {
	var sb strings.Builder
	if err := WriteVariance(&sb, []VarianceRow{
		{Corpus: "CACM", Seeds: 5, CtfMean: 0.9, CtfStd: 0.01,
			SpearmanMean: 0.95, SpearmanStd: 0.005, QueriesMean: 100, QueriesStd: 4},
	}); err != nil {
		t.Fatal(err)
	}
	if err := WriteSizes(&sb, []SizeRow{
		{Corpus: "CACM", Actual: 3204, CaptureRecapture: 3100, CaptureRecaptureErr: 0.03,
			SampleResample: 2800, SampleResampleErr: 0.13, SampleDocs: 300},
	}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"variance", "size estimation", "3204", "0.9000"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}
