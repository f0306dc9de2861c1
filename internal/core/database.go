// Package core implements query-based sampling, the paper's contribution
// (§3): learning a language model for a text database by running simple
// queries against its ordinary search interface and folding the retrieved
// documents into a learned model.
//
// The algorithm (§3):
//
//  1. Select an initial query term.
//  2. Run a one-term query on the database.
//  3. Retrieve the top N documents returned.
//  4. Update the language model from the retrieved documents.
//  5. If the stopping criterion is not reached, select a new query term
//     and go to step 2.
//
// The sampler needs nothing from the database beyond Search and Fetch —
// the "minimal criterion that we assume any database can satisfy". No
// cooperation, no exported statistics, no shared indexing conventions.
package core

import (
	"fmt"

	"repro/internal/corpus"
)

// Database is the minimal interface a searchable text database must
// provide: run a query and return ranked document ids, and fetch a
// document's text by id. internal/index implements it locally and
// internal/netsearch implements it across a TCP connection.
type Database interface {
	// Search runs a free-text query and returns the ids of the top n
	// documents, best first. An empty result is not an error: it is a
	// failed query (a term the database does not index).
	Search(query string, n int) ([]int, error)
	// Fetch returns the full text of a previously returned document.
	Fetch(id int) (corpus.Document, error)
}

// BatchFetcher is an optional capability beside Database, which stays the
// whole of what a database must offer: one that can fetch several documents
// in a single exchange (netsearch.Client sends a probe query's fetches in
// one write and reads the answers in order) says so by implementing it, and
// the sampler then pays one round trip for a query's documents instead of
// one each.
type BatchFetcher interface {
	// FetchAll returns the documents for ids, in the order asked. It
	// fails as a whole: on an error no document is returned.
	FetchAll(ids []int) ([]corpus.Document, error)
}

// fetchAll fetches ids from db in order, in one exchange when db can and
// one Fetch each when it cannot.
func fetchAll(db Database, ids []int) ([]corpus.Document, error) {
	if bf, ok := db.(BatchFetcher); ok {
		docs, err := bf.FetchAll(ids)
		if err != nil {
			return nil, fmt.Errorf("core: fetch %v: %w", ids, err)
		}
		if len(docs) != len(ids) {
			return nil, fmt.Errorf("core: fetch %v: %d documents returned", ids, len(docs))
		}
		return docs, nil
	}
	docs := make([]corpus.Document, len(ids))
	for i, id := range ids {
		doc, err := db.Fetch(id)
		if err != nil {
			return nil, fmt.Errorf("core: fetch %d: %w", id, err)
		}
		docs[i] = doc
	}
	return docs, nil
}
