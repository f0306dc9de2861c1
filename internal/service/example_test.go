package service_test

import (
	"fmt"
	"log"
	"os"

	"repro/internal/analysis"
	"repro/internal/experiments"
	"repro/internal/netsearch"
	"repro/internal/service"
	"repro/internal/store"
)

// ExampleService embeds the database-selection service in a program, the
// same Service type cmd/selectd runs as an HTTP daemon: register
// databases (one of them remote over TCP), sample them, rank a query, and
// extend a sample when more accuracy is needed — the paper's §5
// "sampling can be continued" property.
func ExampleService() {
	dir, err := os.MkdirTemp("", "selectsvc-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		log.Fatal(err)
	}

	dbs, err := experiments.Federation(4, 500, 3)
	if err != nil {
		log.Fatal(err)
	}

	svc := service.New(analysis.Database(), st)
	defer svc.Close()

	// Three databases in-process and one over TCP: the service cannot tell
	// the difference, which is the point.
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

	for _, db := range dbs {
		status, err := svc.Sample(db.Name, service.SampleOptions{Docs: 100, Seed: 7})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s %4d docs, %4d queries, %5d terms\n",
			status.Name, status.SampledDocs, status.Queries, status.Terms)
	}

	// A query that topically belongs to the remote database.
	terms := experiments.TopicalTerms(dbs[3], dbs, 2)
	query := terms[0] + " " + terms[1]
	ranked, err := svc.Rank(query, "cori", 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top databases for %q:\n", query)
	for i, r := range ranked {
		fmt.Printf("  %d. %-18s %.4f\n", i+1, r.Name, r.Score)
	}

	// Extending a sample continues it rather than starting over.
	status, err := svc.Sample(dbs[0].Name, service.SampleOptions{Docs: 150, Seed: 8, Extend: true})
	if err != nil {
		log.Fatal(err)
	}
	top, err := svc.Summary(dbs[0].Name, "avg-tf", 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("extended %s to %d docs; top avg-tf terms:", status.Name, status.SampledDocs)
	for _, row := range top {
		fmt.Printf(" %s", row.Term)
	}
	fmt.Println()

	// A restarted service would load these instead of re-sampling.
	names, err := st.List()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("persisted:", names)
	// Output:
	// db00-finance        100 docs,   48 queries,  1254 terms
	// db01-law            100 docs,   49 queries,  1349 terms
	// db02-medicine       103 docs,   49 queries,  1276 terms
	// db03-sport          102 docs,   48 queries,  1369 terms
	// top databases for "tspefruchaba tspefruchaca":
	//   1. db03-sport         0.6472
	//   2. db00-finance       0.4000
	//   3. db01-law           0.4000
	// extended db00-finance to 250 docs; top avg-tf terms: tspobriziba tspobrizica tspobrizida
	// persisted: [db00-finance db01-law db02-medicine db03-sport]
}
