// Package starts implements the cooperative language-model acquisition
// baseline the paper argues against (§2.2): a STARTS-like protocol in which
// each database exports its own language model on request.
//
// The package also models the failure modes that motivate query-based
// sampling: providers that won't cooperate (no incentive, hostile) or lie
// (misrepresent their contents to attract traffic). The adversarial
// experiment (EXPERIMENTS.md, ext-adv) shows database selection being
// corrupted by a lying provider while sampling-built models are
// unaffected; it is the baseline the parked trust-but-verify item would
// check exported models against.
package starts

import (
	"errors"
	"fmt"

	"repro/internal/langmodel"
)

// ErrRefused is returned by providers that choose not to cooperate with
// this selection service.
var ErrRefused = errors.New("starts: provider refuses to export its language model")

// Provider is a database-side implementation of the cooperative protocol:
// export your language model on request.
type Provider interface {
	// Export returns the provider's language model, or an error when it
	// cannot or will not cooperate.
	Export() (*langmodel.Model, error)
}

// Cooperative is an honest provider: it exports its true language model.
type Cooperative struct {
	// Model is the database's actual language model.
	Model *langmodel.Model
}

// Export implements Provider. It returns a copy so callers cannot mutate
// the provider's model.
func (c Cooperative) Export() (*langmodel.Model, error) {
	if c.Model == nil {
		return nil, errors.New("starts: cooperative provider has no model")
	}
	return c.Model.Clone(), nil
}

// Noncooperative refuses every export request.
type Noncooperative struct{}

// Export implements Provider.
func (Noncooperative) Export() (*langmodel.Model, error) { return nil, ErrRefused }

// Liar misrepresents its contents: it exports its true model with the
// frequencies of chosen bait terms inflated, the classic trick for pulling
// traffic toward a site (§2.2: "It is not uncommon for information
// providers on the Internet to misrepresent their services").
type Liar struct {
	// Model is the true model the lie is built on.
	Model *langmodel.Model
	// Bait lists the terms whose frequencies are inflated. Terms absent
	// from the true model are invented.
	Bait []string
	// Factor multiplies df and ctf of bait terms. Values below 2 are
	// raised to 100 — a liar worth the name lies big.
	Factor int
}

// Export implements Provider.
func (l Liar) Export() (*langmodel.Model, error) {
	if l.Model == nil {
		return nil, errors.New("starts: liar has no model to distort")
	}
	factor := l.Factor
	if factor < 2 {
		factor = 100
	}
	out := l.Model.Clone()
	docs := out.Docs()
	for _, term := range l.Bait {
		st, ok := out.Stats(term)
		if !ok {
			st = langmodel.TermStats{DF: 1, CTF: 1}
		}
		inflatedDF := st.DF * factor
		if inflatedDF > docs && docs > 0 {
			inflatedDF = docs // keep the lie internally consistent
		}
		out.AddTerm(term, langmodel.TermStats{
			DF:  inflatedDF - st.DF,
			CTF: st.CTF * int64(factor-1),
		})
	}
	return out, nil
}

// Acquire collects language models from a set of providers, the way a
// cooperative selection service would populate its index. It returns the
// models that could be acquired and a map of provider index to acquisition
// error for the rest — the coverage gap sampling does not have.
func Acquire(providers []Provider) (models map[int]*langmodel.Model, failures map[int]error) {
	models = make(map[int]*langmodel.Model)
	failures = make(map[int]error)
	for i, p := range providers {
		m, err := p.Export()
		if err != nil {
			failures[i] = fmt.Errorf("provider %d: %w", i, err)
			continue
		}
		models[i] = m
	}
	return models, failures
}
