// Command corpusgen generates the synthetic test corpora and reports
// their Table 1 characteristics. With -sample it prints example documents
// so the reader can see what the generator produces.
//
// Usage:
//
//	corpusgen [-corpus all|CACM|WSJ88|TREC123|Support] [-scale 1] [-sample 0]
//	          [-serve addr]
//
// With -serve, corpusgen builds the corpus's index and serves it as a
// netsearch database — handy for exercising qbsample -addr against a
// separate process.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"

	"repro/internal/analysis"
	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/netsearch"
)

func main() {
	name := flag.String("corpus", "all", "corpus to generate (all, CACM, WSJ88, TREC123, Support)")
	scale := flag.Float64("scale", 1.0, "document count multiplier")
	sample := flag.Int("sample", 0, "print this many example documents")
	serve := flag.String("serve", "", "serve the corpus as a netsearch database on this address")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "corpusgen: "+format+"\n", args...)
		os.Exit(1)
	}

	var profiles []corpus.Profile
	if *name == "all" {
		profiles = append(corpus.Profiles(), corpus.Support())
	} else {
		p, err := corpus.ByName(*name)
		if err != nil {
			fail("%v", err)
		}
		profiles = []corpus.Profile{p}
	}

	if *serve != "" && len(profiles) != 1 {
		fail("-serve requires a single -corpus")
	}

	for _, p := range profiles {
		p = corpus.Scaled(p, *scale)
		docs, err := p.Generate()
		if err != nil {
			fail("%v", err)
		}
		st := corpus.ComputeStats(p.Name, docs, analysis.Raw())
		fmt.Printf("%s: %d docs, %d unique terms, %d total terms, %d bytes, %d topics\n",
			st.Name, st.Docs, st.UniqueTerms, st.TotalTerms, st.Bytes, st.Topics)
		for i := 0; i < *sample && i < len(docs); i++ {
			text := docs[i].Text
			if len(text) > 200 {
				text = text[:200] + "..."
			}
			fmt.Printf("  [%d] %s\n      %s\n", docs[i].ID, docs[i].Title, text)
		}
		if *serve != "" {
			ix := index.Build(docs, analysis.Database(), index.InQuery)
			srv, err := netsearch.Serve(ix, *serve)
			if err != nil {
				fail("%v", err)
			}
			fmt.Printf("serving %s on %s (ctrl-c to stop)\n", p.Name, srv.Addr())
			ch := make(chan os.Signal, 1)
			signal.Notify(ch, os.Interrupt)
			<-ch
			srv.Close()
		}
	}
}
