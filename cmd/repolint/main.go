// Command repolint runs this repository's concurrency invariant checks
// (internal/lint) over one or more packages and exits non-zero on
// unsuppressed findings: all fan-out through internal/parallel, and no
// blocking call under a held lock.
//
// Usage:
//
//	repolint [flags] [patterns]
//
// Patterns follow go-tool conventions relative to the module root:
// "./..." (default), "./internal/...", or "./cmd/repolint". Flags:
//
//	-C dir        module root to lint (default: ".", must contain go.mod)
//	-json         emit diagnostics as a JSON array instead of text
//	-list         list registered analyzers and exit
//	-show-ignored also print suppressed findings (marked "ignored:")
//
// Suppress a single finding at its line with a justified directive:
//
//	//lint:ignore <analyzer> <reason>
//
// Exit status: 0 clean, 1 findings, 2 usage or load error. Findings go
// to stdout; usage, load, and type errors go to stderr, so a CI step can
// separate "the code is dirty" from "the linter could not run".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repolint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("C", ".", "module root directory (must contain go.mod)")
	asJSON := fs.Bool("json", false, "emit diagnostics as JSON")
	list := fs.Bool("list", false, "list analyzers and exit")
	showIgnored := fs.Bool("show-ignored", false, "also print suppressed findings")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	loader, err := lint.NewLoader(*root)
	if err != nil {
		fmt.Fprintf(stderr, "repolint: %v\n", err)
		return 2
	}
	pkgs, err := loader.Load(fs.Args()...)
	if err != nil {
		fmt.Fprintf(stderr, "repolint: %v\n", err)
		return 2
	}
	loadOK := true
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(stderr, "repolint: %s: type error: %v\n", pkg.PkgPath, terr)
			loadOK = false
		}
	}

	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "repolint: %v\n", err)
		return 2
	}

	findings := lint.Unsuppressed(diags)

	shown := findings
	if *showIgnored {
		shown = diags
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if shown == nil {
			shown = []lint.Diagnostic{}
		}
		if err := enc.Encode(shown); err != nil {
			fmt.Fprintf(stderr, "repolint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range shown {
			if d.Suppressed {
				fmt.Fprintf(stdout, "ignored: %s [%s]\n", d, d.SuppressReason)
			} else {
				fmt.Fprintln(stdout, d.String())
			}
		}
	}

	switch {
	case !loadOK:
		return 2
	case len(findings) > 0:
		if !*asJSON {
			fmt.Fprintf(stdout, "repolint: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		}
		return 1
	default:
		return 0
	}
}
