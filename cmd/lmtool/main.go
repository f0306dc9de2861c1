// Command lmtool inspects and manipulates stored language models.
//
// Usage:
//
//	lmtool info <model>                     # docs, vocabulary, occurrences
//	lmtool top <model> [-k 20] [-by avg-tf] # §7-style summary
//	lmtool compare <learned> <actual>       # the paper's §4.3 metrics
//	lmtool dump <model>                     # TSV to stdout
//
// Model files are QBLM1, the binary format qbsample -out and the model
// store write (.qblm); dump is the text export.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/langmodel"
	"repro/internal/metrics"
	"repro/internal/summarize"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	args := os.Args[2:]
	var err error
	switch cmd {
	case "info":
		err = runInfo(args)
	case "top":
		err = runTop(args)
	case "compare":
		err = runCompare(args)
	case "dump":
		err = runDump(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lmtool:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: lmtool {info|top|compare|dump} ...")
	os.Exit(2)
}

// load reads a QBLM1 model file.
func load(path string) (*langmodel.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return langmodel.ReadBinary(f)
}

func runInfo(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("info needs exactly one model file")
	}
	m, err := load(args[0])
	if err != nil {
		return err
	}
	fmt.Printf("file:        %s\n", args[0])
	fmt.Printf("documents:   %d\n", m.Docs())
	fmt.Printf("vocabulary:  %d terms\n", m.VocabSize())
	fmt.Printf("occurrences: %d\n", m.TotalCTF())
	if m.Docs() > 0 {
		fmt.Printf("terms/doc:   %.1f\n", float64(m.TotalCTF())/float64(m.Docs()))
	}
	return nil
}

func runTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	k := fs.Int("k", 20, "terms to show")
	by := fs.String("by", "avg-tf", "ranking metric: df, ctf, avg-tf")
	noStop := fs.Bool("keep-stopwords", false, "do not filter stopwords")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("top needs exactly one model file")
	}
	m, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	metric, err := parseMetric(*by)
	if err != nil {
		return err
	}
	stop := analysis.InqueryStoplist()
	if *noStop {
		stop = nil
	}
	rows := summarize.Top(m, metric, *k, stop)
	return summarize.Render(os.Stdout, rows, metric)
}

func parseMetric(name string) (langmodel.RankMetric, error) {
	switch name {
	case "df":
		return langmodel.ByDF, nil
	case "ctf":
		return langmodel.ByCTF, nil
	case "avg-tf", "avgtf":
		return langmodel.ByAvgTF, nil
	}
	return 0, fmt.Errorf("unknown metric %q", name)
}

func runCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	normalize := fs.Bool("normalize", false, "stop+stem the first model before comparing (the §4.1 protocol)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("compare needs <learned> and <actual>")
	}
	learned, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	actual, err := load(fs.Arg(1))
	if err != nil {
		return err
	}
	if *normalize {
		learned = learned.Normalize(analysis.Database())
	}
	fmt.Printf("pct learned:      %.4f\n", metrics.PercentageLearned(learned, actual))
	fmt.Printf("ctf ratio:        %.4f\n", metrics.CtfRatio(learned, actual))
	fmt.Printf("spearman (paper): %.4f\n", metrics.SpearmanSimple(learned, actual, langmodel.ByDF))
	fmt.Printf("spearman (ties):  %.4f\n", metrics.Spearman(learned, actual, langmodel.ByDF))
	fmt.Printf("kendall tau-b:    %.4f\n", metrics.KendallTau(learned, actual, langmodel.ByDF))
	fmt.Printf("rdiff:            %.5f\n", metrics.Rdiff(learned, actual, langmodel.ByDF))
	return nil
}

func runDump(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("dump needs exactly one model file")
	}
	m, err := load(args[0])
	if err != nil {
		return err
	}
	return m.DumpTSV(os.Stdout)
}
