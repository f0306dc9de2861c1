// Service: embed the database-selection service in a program.
//
// cmd/selectd runs the service as an HTTP daemon; this example uses the
// same Service type in-process: register databases (one of them remote
// over TCP), sample them, persist the models, rank queries, and extend a
// sample when more accuracy is needed — the paper's §5 "sampling can be
// continued" property.
//
// Run it with:
//
//	go run ./examples/service
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/experiments"
	"repro/internal/netsearch"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	dir, err := os.MkdirTemp("", "selectsvc-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(filepath.Join(dir, "models"))
	if err != nil {
		log.Fatal(err)
	}

	dbs, err := experiments.Federation(4, 500, 3)
	if err != nil {
		log.Fatal(err)
	}

	svc := service.New(analysis.Database(), st)
	defer svc.Close()

	// Register three databases in-process and one over TCP — the service
	// cannot tell the difference, which is the point.
	for _, db := range dbs[:3] {
		if err := svc.RegisterLocal(db.Name, db.Index); err != nil {
			log.Fatal(err)
		}
	}
	remote, err := netsearch.Serve(dbs[3].Index, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer remote.Close()
	if err := svc.Register(dbs[3].Name, remote.Addr()); err != nil {
		log.Fatal(err)
	}

	fmt.Println("sampling every database (100 docs each)...")
	for _, db := range dbs {
		status, err := svc.Sample(db.Name, service.SampleOptions{Docs: 100, Seed: 7})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-18s %4d docs, %4d queries, %5d terms\n",
			status.Name, status.SampledDocs, status.Queries, status.Terms)
	}

	// Route a query that topically belongs to the remote database.
	queryTerms := experiments.TopicalTerms(dbs[3], dbs, 2)
	query := queryTerms[0] + " " + queryTerms[1]
	ranked, err := svc.Rank(query, "cori", 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntop databases for %q:\n", query)
	for i, r := range ranked {
		fmt.Printf("  %d. %-18s %.4f\n", i+1, r.Name, r.Score)
	}

	// Need more accuracy on one database? Extend its sample.
	before, _ := svc.Summary(dbs[0].Name, "avg-tf", 3)
	status, err := svc.Sample(dbs[0].Name, service.SampleOptions{Docs: 150, Seed: 8, Extend: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nextended %s to %d docs (%d terms); top terms before/after:\n",
		status.Name, status.SampledDocs, status.Terms)
	after, _ := svc.Summary(dbs[0].Name, "avg-tf", 3)
	for i := range after {
		b := "-"
		if i < len(before) {
			b = before[i].Term
		}
		fmt.Printf("  %-16s -> %s\n", b, after[i].Term)
	}

	names, _ := st.List()
	fmt.Printf("\nmodels persisted on disk: %v\n", names)
	fmt.Println("a restarted service would load these instead of re-sampling.")
}
