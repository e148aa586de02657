// Package dil implements the XOntoRank Dewey Inverted Lists
// (XOnto-DILs) and the Index Creation Module of the paper's Section V.
//
// A DIL maps a keyword to the list of XML nodes associated with it,
// each carrying the node score NS(v, w) of equation (5): the maximum
// of the node's normalized IR score for the keyword and (scaled by
// alpha) the OntoScore of the concept the node references. A built
// list names each node by its element key in the stage that built it
// — a dense int32 assigned in Dewey order — so a posting is a
// pointer-free 16-byte record, lists are in Dewey (document) order by
// construction, and a node's Dewey ID is looked up in the stage's
// table (IDs) only where it is read: the merge's per-document runs
// and RDIL's random access. Once built, a list is block-coded
// (CompactList), the form the keyword cache, the index and the arena
// hold.
package dil

import (
	"sort"

	"repro/internal/xmltree"
)

// Posting is one entry of a built list: the element's key, the ID of
// its document — the identifier's first component, which the block
// coding stores as a delta where it changes — and its node score. It
// holds no pointer, so the collector never scans a list's array
// (TestPostingLayout pins the layout).
type Posting struct {
	Key   int32
	Doc   int32
	Score float64
}

// List is a key-ordered — hence Dewey-ordered — posting list for one
// keyword.
type List []Posting

// Entry is a posting resolved to its element's Dewey identifier: the
// form the query phase's stack merge and RDIL read.
type Entry struct {
	ID    xmltree.Dewey
	Score float64
}

// IDs resolves the keys of the lists a builder emits to Dewey
// identifiers: keys below len(Base) index the stage's table, and a
// list pinned to a live state numbers its delta postings after them,
// indexing Delta, the delta stage's table (Live). Both tables are
// shared and read-only.
type IDs struct {
	Base  []xmltree.Dewey
	Delta []xmltree.Dewey
}

// Len returns the number of keys the table resolves: its bound.
func (t IDs) Len() int { return len(t.Base) + len(t.Delta) }

// ID returns the Dewey identifier of an element key.
func (t IDs) ID(key int32) xmltree.Dewey {
	if uint(key) < uint(len(t.Base)) {
		return t.Base[key]
	}
	return t.Delta[int(key)-len(t.Base)]
}

// Entries resolves a list to its Dewey form. The identifiers are the
// table's, shared.
func (t IDs) Entries(l List) []Entry {
	out := make([]Entry, len(l))
	for i, p := range l {
		out[i] = Entry{ID: t.ID(p.Key), Score: p.Score}
	}
	return out
}

// Index is the in-memory XOnto-DIL index: one Dewey-ordered posting
// list per keyword, block-coded — the DIL merge streams block cursors
// and skips with the block table, RDIL decodes it, and the arena
// writer stores its bytes as they are.
type Index struct {
	lists map[string]*CompactList
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{lists: make(map[string]*CompactList)}
}

// Set installs (replacing) the list for a keyword; a nil or empty list
// removes it.
func (ix *Index) Set(keyword string, c *CompactList) {
	if c == nil || c.Len() == 0 {
		delete(ix.lists, keyword)
		return
	}
	ix.lists[keyword] = c
}

// Compact returns a keyword's list (nil if absent). It is immutable
// and safe to share.
func (ix *Index) Compact(keyword string) *CompactList { return ix.lists[keyword] }

// Keywords returns the indexed keywords, sorted.
func (ix *Index) Keywords() []string {
	out := make([]string, 0, len(ix.lists))
	for k := range ix.lists {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
