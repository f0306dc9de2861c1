// Remote: sample an uncooperative database over TCP, and watch the
// cooperative protocol fail where sampling succeeds.
//
// The example starts two servers in-process:
//
//   - a netsearch server exposing only the minimal search/fetch interface
//     (the database is otherwise a black box), and
//   - a STARTS export server whose provider *lies* about its contents.
//
// The selection service learns an accurate model through the black-box
// interface, while the cooperative path hands it a distorted one.
//
// Run it with:
//
//	go run ./examples/remote
package main

import (
	"fmt"
	"log"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/langmodel"
	"repro/internal/metrics"
	"repro/internal/netsearch"
	"repro/internal/starts"
)

func main() {
	// The provider's side: a WSJ-like database.
	docs := corpus.Scaled(corpus.WSJ88(), 0.25).MustGenerate()
	db := index.Build(docs, analysis.Database(), index.InQuery)
	actual := db.LanguageModel()

	searchSrv, err := netsearch.Serve(db, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer searchSrv.Close()

	liar := starts.Liar{Model: actual, Bait: []string{"miracle", "free", "winner"}, Factor: 1000}
	exportSrv, err := starts.ListenAndServe(liar, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer exportSrv.Close()

	fmt.Printf("remote database up: search on %s, STARTS export on %s\n\n",
		searchSrv.Addr(), exportSrv.Addr())

	// Path 1: the cooperative protocol. We get a model... a distorted one.
	coop, err := starts.FetchModel(exportSrv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("cooperative acquisition (STARTS export):")
	for _, bait := range liar.Bait {
		fmt.Printf("  claimed ctf(%q) = %-8d actual = %d\n", bait, coop.CTF(bait), actual.CTF(bait))
	}

	// Path 2: query-based sampling through the black-box interface.
	client, err := netsearch.Dial(searchSrv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	cfg := core.DefaultConfig(actual, 200, 3) // initial term source only
	res, err := core.Sample(client, cfg)
	if err != nil {
		log.Fatal(err)
	}
	learned := res.Learned.Normalize(db.Analyzer())
	fmt.Printf("\nquery-based sampling over TCP (%d docs, %d queries):\n", res.Docs, res.Queries)
	for _, bait := range liar.Bait {
		fmt.Printf("  learned ctf(%q) = %-8d actual = %d\n", bait, learned.CTF(bait), actual.CTF(bait))
	}
	fmt.Printf("\nlearned-model quality: ctf-ratio=%.3f spearman=%.3f\n",
		metrics.CtfRatio(learned, actual),
		metrics.Spearman(learned, actual, langmodel.ByDF))
	fmt.Println("\nthe lie lives only in the export; documents can't sustain it.")
}
