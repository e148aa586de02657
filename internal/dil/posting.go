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
// construction, and the stage's table (Keys) gives the tree shape the
// merge needs by key; a node's Dewey ID is looked up only for the
// results a query returns. Once built, a list is block-coded
// (CompactList), the form the keyword cache, the index and the arena
// hold.
package dil

import (
	"fmt"
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

// Keys is one stage's element table in key order: each element's
// Dewey identifier, its parent's key (-1 for a document root) and the
// last key of its subtree (its end). Keys follow Dewey order, so
// element b lies in a's subtree exactly when a <= b <= end of a: the
// merge finds common ancestors by integer compares, and reads an
// identifier only for the results it returns.
type Keys struct {
	ids    []xmltree.Dewey
	parent []int32
	end    []int32
}

// NewKeys takes a table of identifiers in Dewey order — documents in
// ascending ID, each one's elements in document order, every ancestor
// of an element present — packs them into one array and derives each
// element's parent and subtree end in the same pass.
func NewKeys(ids []xmltree.Dewey) *Keys {
	n := 0
	for _, id := range ids {
		n += len(id)
	}
	comps := make([]int32, 0, n)
	t := &Keys{ids: ids, parent: make([]int32, len(ids)), end: make([]int32, len(ids))}
	var path []int32 // the keys of the current element's ancestors
	for key, id := range ids {
		at := len(comps)
		comps = append(comps, id...)
		ids[key] = comps[at:len(comps):len(comps)]
		for len(path) >= len(id) {
			t.end[path[len(path)-1]] = int32(key) - 1
			path = path[:len(path)-1]
		}
		if len(path) != len(id)-1 {
			panic(fmt.Sprintf("dil: element %v has no parent in the table", id))
		}
		t.parent[key] = -1
		if len(path) > 0 {
			t.parent[key] = path[len(path)-1]
		}
		path = append(path, int32(key))
	}
	for _, key := range path {
		t.end[key] = int32(len(ids)) - 1
	}
	return t
}

// Len returns the number of elements (0 for a nil table).
func (t *Keys) Len() int {
	if t == nil {
		return 0
	}
	return len(t.ids)
}

// Depth returns the element's depth: its identifier's length.
func (t *Keys) Depth(key int32) int { return len(t.ids[key]) }

// LCA returns the lowest common ancestor of elements a <= b of one
// document, climbing from a until b lies in the subtree.
func (t *Keys) LCA(a, b int32) int32 {
	for b > t.end[a] {
		a = t.parent[a]
	}
	return a
}

// IDs resolves the keys of the lists a builder emits: keys below
// Base.Len() index the stage's table, and a list pinned to a live
// state numbers its delta postings after them, indexing Delta, the
// delta stage's table (Live). Both tables are shared and read-only, so
// two IDs over the same tables compare equal.
type IDs struct {
	Base  *Keys
	Delta *Keys
}

// Len returns the number of keys the table resolves: its bound.
func (t IDs) Len() int { return t.Base.Len() + t.Delta.Len() }

// Stage returns the table that holds key, and the key of its first
// element.
func (t IDs) Stage(key int32) (*Keys, int32) {
	if n := t.Base.Len(); int(key) >= n {
		return t.Delta, int32(n)
	}
	return t.Base, 0
}

// ID returns the Dewey identifier of an element key.
func (t IDs) ID(key int32) xmltree.Dewey {
	k, off := t.Stage(key)
	return k.ids[key-off]
}

// Index is the in-memory XOnto-DIL index: one Dewey-ordered posting
// list per keyword, block-coded — the DIL merge streams block cursors
// and skips with the block table, and the arena writer stores its
// bytes as they are.
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
