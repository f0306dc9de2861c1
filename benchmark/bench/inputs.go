package bench

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/langmodel"
	"repro/internal/loadgen"
	"repro/internal/selection"
	"repro/internal/store"
)

// Ranked is one row of a ranking, as the rank API returns it.
type Ranked struct {
	Name  string  `json:"name"`
	Score float64 `json:"score"`
}

// Federation is the model set a workload's host ranks over, as the
// harness knows it: enough to generate queries and to compute the answer
// the host should give.
type Federation struct {
	// Names and Models are parallel and sorted by name, the order the
	// service compiles them in (ties in a ranking break by this order).
	// A text database's model is nil until SetModel.
	Names  []string
	Models []*langmodel.Model
	// Vocab is the term universe queries are drawn from.
	Vocab []string
	// Text lists the databases that can be sampled; empty for the purely
	// synthetic federation.
	Text []TextDB
}

// TextDB is one real text database of a federation.
type TextDB struct {
	*experiments.FederationDB
	// At is the database's position in Federation.Names.
	At int
	// InitialTerm is the first query of every sampling run on it: its most
	// frequent term, so the run depends on nothing but the database.
	InitialTerm string
}

// SetupQuery is the query the harness asks outside the measured load:
// as a host's first rank, and to warm in-process services. It is made of
// the vocabulary's first QueryTerms terms, the one combination no Stream
// hands out, so it never turns a measured query into a repeat.
func (f *Federation) SetupQuery() string {
	return strings.Join(f.Vocab[:QueryTerms], " ")
}

// SyntheticFederation builds the FederationDBs-model synthetic set.
func SyntheticFederation() *Federation {
	models, words := loadgen.SyntheticModels(FederationDBs, FederationSeed)
	f := &Federation{Models: models, Vocab: words, Names: make([]string, len(models))}
	for i := range f.Names {
		f.Names[i] = fmt.Sprintf("db-%03d", i)
	}
	return f
}

// WriteStore persists the federation's models (those it has) under dir,
// the input a warm host loads.
func (f *Federation) WriteStore(dir string) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	for i, m := range f.Models {
		if m == nil {
			continue
		}
		if err := st.Put(f.Names[i], m); err != nil {
			return err
		}
	}
	return nil
}

// TextFederation builds n text databases with no models yet: SetModel
// installs one per database once it has been sampled. The query
// vocabulary is the databases' most frequent index terms.
func TextFederation(n int) (*Federation, error) {
	dbs, err := experiments.Federation(n, TextDocs, TextSeed)
	if err != nil {
		return nil, err
	}
	sort.Slice(dbs, func(i, j int) bool { return dbs[i].Name < dbs[j].Name })
	f := &Federation{
		Text:   make([]TextDB, n),
		Names:  make([]string, n),
		Models: make([]*langmodel.Model, n),
	}
	an := analysis.Database()
	ctf := make(map[string]int64)
	for i, db := range dbs {
		f.Names[i] = db.Name
		f.Text[i] = TextDB{FederationDB: db, At: i, InitialTerm: db.Actual.TopTerms(langmodel.ByDF, 1)[0]}
		db.Actual.Range(func(term string, st langmodel.TermStats) bool {
			// Keep only terms the query analyzer passes through as one
			// token, so no generated query ever analyzes to nothing.
			if toks := an.Tokens(term); len(toks) == 1 {
				ctf[term] += st.CTF
			}
			return true
		})
	}
	f.Vocab = make([]string, 0, len(ctf))
	for term := range ctf {
		f.Vocab = append(f.Vocab, term)
	}
	sort.Slice(f.Vocab, func(i, j int) bool {
		a, b := f.Vocab[i], f.Vocab[j]
		if ctf[a] != ctf[b] {
			return ctf[a] > ctf[b]
		}
		return a < b
	})
	if len(f.Vocab) > 4000 {
		f.Vocab = f.Vocab[:4000]
	}
	return f, nil
}

// MixedFederation is the refresh workload's shape: the synthetic models,
// served warm, plus n text databases to sample. Queries draw from both
// vocabularies, interleaved so that either kind of term is as likely at
// every Zipf rank.
func MixedFederation(n int) (*Federation, error) {
	syn := SyntheticFederation()
	txt, err := TextFederation(n)
	if err != nil {
		return nil, err
	}
	f := &Federation{
		Names:  append(syn.Names, txt.Names...),
		Models: append(syn.Models, txt.Models...),
		Text:   txt.Text,
	}
	if !sort.StringsAreSorted(f.Names) {
		return nil, fmt.Errorf("bench: text database names must sort after the synthetic ones")
	}
	for i := range f.Text {
		f.Text[i].At += len(syn.Names)
	}
	for i := 0; i < len(syn.Vocab) && i < len(txt.Vocab); i++ {
		f.Vocab = append(f.Vocab, syn.Vocab[i], txt.Vocab[i])
	}
	return f, nil
}

// SampleConfig is the sampling run the service makes for a text database
// given these request options — service.Sample's configuration, with the
// first query term fixed.
func SampleConfig(docs int, seed uint64, initialTerm string) core.Config {
	return core.Config{
		DocsPerQuery: 4,
		Selector:     core.RandomLLM{},
		Stop:         core.StopAfterDocs(docs),
		Analyzer:     analysis.Raw(),
		Seed:         seed,
		InitialTerm:  initialTerm,
	}
}

// SetModel re-runs, on the harness's own copy of text database t, the
// sampling run the host was asked to make, and installs the model the
// host must now be serving. It returns the run for its counts.
func (f *Federation) SetModel(t, docs int, seed uint64) (*core.Result, error) {
	db := f.Text[t]
	res, err := core.Sample(db.Index, SampleConfig(docs, seed, db.InitialTerm))
	if err != nil {
		return nil, err
	}
	f.Models[db.At] = res.Learned.Normalize(analysis.Database())
	return res, nil
}

// Reference computes the rankings a correct host returns, with the map
// scorer (selection.Rank), the implementation the compiled scorer is
// tested against.
type Reference struct {
	fed *Federation
	an  analysis.Analyzer
	// parts lists, per shard, the indices of the models it owns; nil when
	// the host is a single process.
	parts [][]int
}

// NewReference prepares reference rankings for a host of the given shard
// count (0 = single process).
func NewReference(f *Federation, shards int) *Reference {
	r := &Reference{fed: f, an: analysis.Database()}
	if shards > 0 {
		ring := cluster.NewRing(shards, 0, 0)
		r.parts = make([][]int, shards)
		for i, name := range f.Names {
			s := ring.Owner(name)
			r.parts[s] = append(r.parts[s], i)
		}
	}
	return r
}

func (r *Reference) rankOver(terms []string, idx []int) []Ranked {
	models := r.fed.Models
	if idx != nil {
		models = make([]*langmodel.Model, len(idx))
		for i, j := range idx {
			models[i] = r.fed.Models[j]
		}
	}
	ranked := selection.Rank(selection.CORI{}, terms, models)
	if len(ranked) > K {
		ranked = ranked[:K]
	}
	out := make([]Ranked, len(ranked))
	for i, rk := range ranked {
		j := rk.DB
		if idx != nil {
			j = idx[rk.DB]
		}
		out[i] = Ranked{Name: r.fed.Names[j], Score: rk.Score}
	}
	return out
}

// Whole ranks the query over the whole federation as one partition: the
// answer a single-process host gives, and the one every topology should.
func (r *Reference) Whole(query string) []Ranked {
	return r.rankOver(r.an.Tokens(query), nil)
}

// Host ranks the query the way the measured host is built: Whole for a
// single process; for a sharded host each partition's own top K fused as
// the front fuses them (uniform weights, ties by shard then rank).
func (r *Reference) Host(query string) ([]Ranked, error) {
	terms := r.an.Tokens(query)
	if r.parts == nil {
		return r.rankOver(terms, nil), nil
	}
	partials := make([][]Ranked, len(r.parts))
	lists := make([][]selection.DocScore, len(r.parts))
	weights := make([]float64, len(r.parts))
	for s, idx := range r.parts {
		partials[s] = r.rankOver(terms, idx)
		lists[s] = make([]selection.DocScore, len(partials[s]))
		for i, rk := range partials[s] {
			lists[s][i] = selection.DocScore{Doc: i, Score: rk.Score}
		}
		weights[s] = 1
	}
	merged, err := selection.MergeWeighted(lists, weights, K)
	if err != nil {
		return nil, err
	}
	out := make([]Ranked, len(merged))
	for i, h := range merged {
		out[i] = Ranked{Name: partials[h.DB][h.Doc].Name, Score: h.Score}
	}
	return out, nil
}
