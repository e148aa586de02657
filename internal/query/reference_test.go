package query

import (
	"sort"

	"repro/internal/dil"
	"repro/internal/xmltree"
)

// The reference DIL merge: a direct transcription of XRANK's sort-merge
// with an O(k) scan per posting and freshly allocated stack entries. No
// production path runs it; the merge, top-k and engine differentials
// hold the loser-tree merge (merge.go) to its output.

// entry is a posting in Dewey form: the reference merge's input.
type entry struct {
	ID    xmltree.Dewey
	Score float64
}

// entriesOf resolves a built list to Dewey form through its table.
func entriesOf(ids dil.IDs, l dil.List) []entry {
	out := make([]entry, len(l))
	for i, p := range l {
		out[i] = entry{ID: ids.ID(p.Key), Score: p.Score}
	}
	return out
}

// rankTruncate ranks an exhaustive result set — descending score,
// ascending-Dewey tie-break — and truncates it to the top k (k <= 0:
// unranked pass-through).
func rankTruncate(results []Result, k int) []Result {
	if k <= 0 {
		return results
	}
	sort.Slice(results, func(i, j int) bool {
		if results[i].Score != results[j].Score {
			return results[i].Score > results[j].Score
		}
		return results[i].Root.Compare(results[j].Root) < 0
	})
	if len(results) > k {
		results = results[:k]
	}
	return results
}

// page drops the first offset ranked results.
func page(results []Result, offset int) []Result {
	if offset >= len(results) {
		return nil
	}
	return results[max(offset, 0):]
}

type stackEntry struct {
	component int32
	scores    []float64 // propagated best per keyword at this element
	matches   []Match
	// childCovered marks that some descendant already covered all
	// keywords, disqualifying this element (and its ancestors) from
	// being results.
	childCovered bool
}

// merger performs the multi-way Dewey-order traversal of the keyword
// lists.
type merger struct {
	lists [][]entry
	pos   []int
}

// next returns the smallest unconsumed posting (by Dewey order) with
// its keyword index, or ok=false when all lists are drained.
func (m *merger) next() (p entry, kw int, ok bool) {
	best := -1
	for i := range m.lists {
		if m.pos[i] >= len(m.lists[i]) {
			continue
		}
		cand := m.lists[i][m.pos[i]]
		if best < 0 || cand.ID.Compare(p.ID) < 0 {
			best, p = i, cand
		}
	}
	if best < 0 {
		return entry{}, 0, false
	}
	m.pos[best]++
	return p, best, true
}

// runDIL merges the per-keyword lists and returns every result element
// per equation (1), scored per equations (2)-(4).
func runDIL(lists [][]entry, decay float64) []Result {
	n := len(lists)
	if n == 0 {
		return nil
	}
	for _, l := range lists {
		if len(l) == 0 {
			return nil // conjunctive semantics: a keyword with no
			// associations means no results
		}
	}
	m := &merger{lists: make([][]entry, n), pos: make([]int, n)}
	for i, l := range lists {
		m.lists[i] = l
	}

	var results []Result
	var stack []stackEntry
	var path xmltree.Dewey // Dewey of the deepest stack entry

	newEntry := func(comp int32) stackEntry {
		return stackEntry{
			component: comp,
			scores:    make([]float64, n),
			matches:   make([]Match, n),
		}
	}

	coversAll := func(e *stackEntry) bool {
		for _, s := range e.scores {
			if s <= 0 {
				return false
			}
		}
		return true
	}

	// pop finalizes the deepest entry: emit if it is a most-specific
	// cover, then propagate into the parent.
	pop := func() {
		top := len(stack) - 1
		e := &stack[top]
		all := coversAll(e)
		if all && !e.childCovered {
			r := Result{
				Root:       path.Clone(),
				PerKeyword: append([]float64(nil), e.scores...),
				Matches:    append([]Match(nil), e.matches...),
			}
			for _, s := range e.scores {
				r.Score += s
			}
			results = append(results, r)
		}
		if top > 0 {
			parent := &stack[top-1]
			if all || e.childCovered {
				parent.childCovered = true
			}
			for i := range e.scores {
				propagated := e.scores[i] * decay
				if propagated > parent.scores[i] {
					parent.scores[i] = propagated
					parent.matches[i] = e.matches[i]
				}
			}
		}
		stack = stack[:top]
		path = path[:len(path)-1]
	}

	for {
		p, kw, ok := m.next()
		if !ok {
			break
		}
		// Pop to the longest common prefix of path and p.ID.
		lcp := 0
		for lcp < len(path) && lcp < len(p.ID) && path[lcp] == p.ID[lcp] {
			lcp++
		}
		for len(stack) > lcp {
			pop()
		}
		// Push the remaining components of p.ID.
		for len(path) < len(p.ID) {
			comp := p.ID[len(path)]
			stack = append(stack, newEntry(comp))
			path = append(path, comp)
		}
		// Apply the posting at the node itself (distance 0 => no decay).
		e := &stack[len(stack)-1]
		if p.Score > e.scores[kw] {
			e.scores[kw] = p.Score
			e.matches[kw] = Match{ID: p.ID.Clone(), Score: p.Score}
		}
	}
	for len(stack) > 0 {
		pop()
	}
	return results
}
