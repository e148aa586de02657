// Package dil implements the XOntoRank Dewey Inverted Lists
// (XOnto-DILs) and the Index Creation Module of the paper's Section V.
//
// A DIL maps a keyword to the list of XML nodes associated with it,
// identified by Dewey ID and carrying the node score NS(v, w) of
// equation (5): the maximum of the node's normalized IR score for the
// keyword and (scaled by alpha) the OntoScore of the concept the node
// references. Lists are kept in Dewey (document) order so the query
// phase can merge them with XRANK's stack algorithm.
package dil

import (
	"sort"

	"repro/internal/xmltree"
)

// Posting is one entry of a Dewey inverted list.
type Posting struct {
	ID    xmltree.Dewey
	Score float64
}

// List is a Dewey-ordered posting list for one keyword.
type List []Posting

// Sort orders the list in document (Dewey) order.
func (l List) Sort() {
	sort.Slice(l, func(i, j int) bool { return l[i].ID.Compare(l[j].ID) < 0 })
}

// IsSorted reports whether the list is in Dewey order.
func (l List) IsSorted() bool {
	return sort.SliceIsSorted(l, func(i, j int) bool { return l[i].ID.Compare(l[j].ID) < 0 })
}

// EncodedSize returns the list's size in bytes as a flat varint
// encoding would store it — a uvarint count, then per posting the
// identifier's component count and components as uvarints and the
// score as 8 bytes — computed arithmetically. BuildStats reports it as
// the index size.
func (l List) EncodedSize() int {
	n := uvarintLen(uint64(len(l)))
	for _, p := range l {
		n += uvarintLen(uint64(len(p.ID)))
		for _, c := range p.ID {
			n += uvarintLen(uint64(c))
		}
		n += 8
	}
	return n
}

// Index is the in-memory XOnto-DIL index: one Dewey-ordered posting
// list per keyword, held both flat (the RDIL ranked-access path random
// accesses postings) and compact (the DIL merge streams block cursors
// and skips with the block entries).
type Index struct {
	lists   map[string]List
	compact map[string]*CompactList
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{
		lists:   make(map[string]List),
		compact: make(map[string]*CompactList),
	}
}

// Set installs (replacing) the list for a keyword and builds its
// compact block form. If the list is not already in Dewey order it is
// copied and the copy sorted, so the caller's slice is never mutated.
func (ix *Index) Set(keyword string, l List) {
	if !l.IsSorted() {
		l = append(List(nil), l...)
		l.Sort()
	}
	if len(l) == 0 {
		delete(ix.lists, keyword)
		delete(ix.compact, keyword)
		return
	}
	ix.lists[keyword] = l
	ix.compact[keyword] = Compact(l)
}

// List returns the posting list for a keyword (nil if absent). The
// returned slice is shared; callers must not modify it.
func (ix *Index) List(keyword string) List { return ix.lists[keyword] }

// Compact returns the block-structured form of a keyword's list (nil
// if absent). It is immutable and safe to share.
func (ix *Index) Compact(keyword string) *CompactList { return ix.compact[keyword] }

// Has reports whether the keyword has a list.
func (ix *Index) Has(keyword string) bool {
	_, ok := ix.lists[keyword]
	return ok
}

// Keywords returns the indexed keywords, sorted.
func (ix *Index) Keywords() []string {
	out := make([]string, 0, len(ix.lists))
	for k := range ix.lists {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Postings counts all postings across all keywords.
func (ix *Index) Postings() int {
	n := 0
	for _, l := range ix.lists {
		n += len(l)
	}
	return n
}
