package query

import (
	"repro/internal/dil"
	"repro/internal/xmltree"
)

// The DIL merge. Postings of all keyword lists are consumed in one
// global Dewey-order pass (merge.go) while a stack mirrors the
// root-to-node path of the current position. Every stack entry
// accumulates, per keyword, the best propagated score from its subtree
// (equations (2) and (3): NS decayed by the containment distance,
// combined with max). When an
// entry is popped — its subtree fully processed — it is emitted as a
// result iff it is associated with all keywords and no descendant
// already was (equation (1)'s most-specific condition); its scores then
// flow to its parent decayed by one containment edge.

// Match locates the best-scoring node associated with one keyword
// inside a result subtree.
type Match struct {
	ID    xmltree.Dewey
	Score float64 // NS at the node, before propagation decay
}

// Result is one query answer: the most-specific element covering all
// keywords.
type Result struct {
	Root xmltree.Dewey
	// Score is the aggregate of equation (4): the sum over keywords of
	// the decayed per-keyword maxima.
	Score float64
	// PerKeyword holds each keyword's propagated score at Root.
	PerKeyword []float64
	// Matches identifies, per keyword, the descendant whose (decayed)
	// node score realized the maximum.
	Matches []Match
}

// RunLists merges per-keyword lists per equation (1), scored per
// equations (2)-(4). It is the
// core merge step Engine.Query builds on, exported for alternative
// front-ends (e.g. the query-expansion baseline) that assemble their
// own posting lists.
//
// k > 0 returns the exact top-k, sorted by descending score with
// ascending-Dewey tie-break, computed with block-max top-k pruning
// (byte-identical to sorting and truncating the exhaustive output).
// k <= 0 returns every result, unranked.
func RunLists(lists []*dil.CompactList, decay float64, k int) []Result {
	var buf [8]resolved // up to eight keywords merge without allocating
	res := buf[:0]
	for _, l := range lists {
		res = append(res, resolved{list: l})
	}
	out, _ := runFast(res, decay, k, 0, true)
	return out
}
