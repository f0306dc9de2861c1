package selection

// The term dictionary of a snapshot lineage.
//
// A chain of patches shares one append-only dictionary: id i is the i-th
// term ever interned, and each snapshot sees the prefix terms[:vocab] it
// was built with. A patch of the lineage's tip — the snapshot whose view
// is the whole dictionary — appends its new terms in place, so a term is
// hashed once when it arrives and never copied into a later snapshot's
// map. A patch of any other snapshot (a sibling of the tip) cannot append
// without its ids colliding with the tip's, and builds a fresh dictionary
// through the same constructor Compile and the renumbering fold use.
//
// Readers never lock. The hash table is published through an atomic
// pointer and rebuilt whole when it grows; a slot is written once, its
// term before its key, and the key is published atomically, so a reader
// that sees a key also sees its term. A reader that finds an id at or past
// its own vocabulary has found a term a later snapshot added: for it, the
// term is not in the dictionary.

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// termDict is an append-only term -> id index. terms is the writer's
// list, written under mu; a snapshot reads its own view of it.
type termDict struct {
	mu    sync.Mutex // serializes appends; readers never take it
	terms []string
	index atomic.Pointer[dictTable]
}

// dictTable is an open-addressing table with a power-of-two size, at most
// 3/4 full.
type dictTable struct {
	slots []dictSlot
	mask  uint32
}

// dictSlot is one entry: key is 0 while the slot is empty and then
// tag<<32 | id+1, where tag is the term's 32-bit hash, which also picks the
// slot. The term's string header lives beside the key, so a probe reads
// the term's bytes only when the tags match.
type dictSlot struct {
	key  atomic.Uint64
	term string
}

// dictSeed keys the dictionary's hash. Ids follow interning order, not the
// hash, so a per-process seed changes no output.
var dictSeed = maphash.MakeSeed()

func dictHash(term string) uint32 { return uint32(maphash.String(dictSeed, term) >> 32) }

// newTermDict returns an empty dictionary with room for size terms.
func newTermDict(size int) *termDict {
	slots := 8
	for 3*slots < 4*size {
		slots *= 2
	}
	d := &termDict{terms: make([]string, 0, size)}
	d.index.Store(&dictTable{slots: make([]dictSlot, slots), mask: uint32(slots - 1)})
	return d
}

// find returns the slot holding term and its key, or the empty slot where
// the probe for it ends and 0.
func (t *dictTable) find(term string, tag uint32) (*dictSlot, uint64) {
	for i := tag & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		k := s.key.Load()
		if k == 0 || uint32(k>>32) == tag && s.term == term {
			return s, k
		}
	}
}

// lookup returns term's id if it is among the first vocab terms, else -1.
func (d *termDict) lookup(term string, vocab int) int32 {
	_, k := d.index.Load().find(term, dictHash(term))
	if id := int32(uint32(k)) - 1; int(id) < vocab {
		return id // -1 for an empty slot
	}
	return -1
}

// intern returns term's id, appending the term when it is new. Only the
// dictionary's one writer calls it: a constructor that has not shared the
// dictionary yet, or extend under mu.
func (d *termDict) intern(term string) (id int32, fresh bool) {
	tag := dictHash(term)
	tab := d.index.Load()
	s, k := tab.find(term, tag)
	if k != 0 {
		return int32(uint32(k)) - 1, false
	}
	id = int32(len(d.terms))
	d.terms = append(d.terms, term)
	if 4*len(d.terms) <= 3*len(tab.slots) {
		s.term = term
		s.key.Store(uint64(tag)<<32 | uint64(id+1))
		return id, true
	}
	// Rebuild at twice the size, placing each key by its tag (the hash)
	// without hashing its term again, and publish the whole table at once.
	grown := &dictTable{slots: make([]dictSlot, 2*len(tab.slots)), mask: 2*tab.mask + 1}
	put := func(k uint64, term string) {
		i := uint32(k>>32) & grown.mask
		for grown.slots[i].key.Load() != 0 {
			i = (i + 1) & grown.mask
		}
		grown.slots[i].term = term
		grown.slots[i].key.Store(k)
	}
	for i := range tab.slots {
		if k := tab.slots[i].key.Load(); k != 0 {
			put(k, tab.slots[i].term)
		}
	}
	put(uint64(tag)<<32|uint64(id+1), term)
	d.index.Store(grown)
	return id, true
}

// extend returns the dictionary and the view of a snapshot whose terms are
// view, a prefix of d, followed by add, which none of view holds. When
// view is all of d — the receiver is the lineage's tip — add is appended
// to d in place; otherwise the result is a fresh dictionary.
func (d *termDict) extend(view, add []string) (*termDict, []string) {
	if len(add) == 0 {
		return d, view
	}
	d.mu.Lock()
	if len(d.terms) == len(view) {
		for _, t := range add {
			d.intern(t)
		}
		terms := d.view()
		d.mu.Unlock()
		return d, terms
	}
	d.mu.Unlock()
	fork := newTermDict(len(view) + len(add))
	for _, list := range [][]string{view, add} {
		for _, t := range list {
			fork.intern(t)
		}
	}
	return fork, fork.view()
}

// view returns the terms interned so far as a snapshot's view: capped at
// its length, so that nothing appended to the view can write into the
// dictionary's later terms.
func (d *termDict) view() []string { return d.terms[:len(d.terms):len(d.terms)] }
