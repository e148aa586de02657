package experiments

import (
	"math"
	"slices"
	"sort"

	"repro/internal/dil"
	"repro/internal/query"
	"repro/internal/xmltree"
)

// RDIL — XRANK's Ranked Dewey Inverted List algorithm, the top-k
// counterpart of the Dewey-order merge in internal/query. It is beyond
// the paper and serves no request: it is kept here, beside the other
// experiments, as the ranked-access baseline BenchmarkRankedTopK
// measures the merge against. Each keyword's postings are additionally
// ordered by descending score; the algorithm consumes postings
// best-first, materializes the result containing each posting directly
// (via longest-common-prefix probes into the Dewey-ordered lists), and
// stops as soon as no undiscovered result can beat the current k-th
// score.
//
// Correctness rests on two facts about equation (1)'s result set:
// results never nest, so every posting lies under at most one result,
// and the result containing a posting p is exactly the deepest ancestor
// of p whose subtree covers all keywords that additionally passes the
// most-specific check. Hence a result is discovered the first time any
// posting under it is consumed, and an undiscovered result's
// per-keyword contributions are all bounded by the per-list frontier
// scores; when the frontier sum drops to the k-th best score the top-k
// is final.
//
// RunRanked returns exactly the same top-k (scores and roots) as
// query.RunLists, typically after consuming only a fraction of the
// postings — see RankedStats and BenchmarkRankedTopK.

// RankedStats reports the work RunRankedStats performed.
type RankedStats struct {
	PostingsTotal    int // postings across all lists
	PostingsConsumed int // postings popped before termination
	Candidates       int // cover candidates materialized
	Emitted          int // distinct results emitted
}

// RunRanked answers a top-k query over the lists using ranked access
// with early termination. Results are ordered by descending score with
// Dewey tie-break, exactly matching query.RunLists.
func RunRanked(lists []*dil.CompactList, decay float64, k int) []query.Result {
	res, _ := RunRankedStats(lists, decay, k)
	return res
}

// RunRankedStats is RunRanked, additionally reporting access statistics.
func RunRankedStats(lists []*dil.CompactList, decay float64, k int) ([]query.Result, RankedStats) {
	var stats RankedStats
	n := len(lists)
	if n == 0 || k <= 0 {
		return nil, stats
	}
	r := &ranked{lists: make([][]entry, n), decay: decay}
	for i, l := range lists {
		if l.Len() == 0 {
			return nil, stats
		}
		r.lists[i] = entries(l)
		stats.PostingsTotal += l.Len()
	}
	r.init()

	emitted := make(map[string]bool)
	var top []query.Result // the best k so far, best first

	for {
		j := r.bestFrontier()
		if j < 0 {
			break // all lists drained
		}
		// Termination: no undiscovered result can beat OR TIE the k-th
		// best (ties must be surfaced so the Dewey tie-break matches the
		// exhaustive merge exactly).
		if len(top) == k {
			bound := 0.0
			for i := range lists {
				bound += r.frontierScore(i)
			}
			if bound < top[k-1].Score {
				break
			}
		}
		p := r.pop(j)
		stats.PostingsConsumed++

		root, ok := r.coverOf(p.ID, j)
		if !ok {
			continue
		}
		key := root.String()
		if emitted[key] {
			continue
		}
		stats.Candidates++
		if !r.mostSpecific(root) {
			continue
		}
		emitted[key] = true
		stats.Emitted++
		result := r.score(root)
		at, _ := slices.BinarySearchFunc(top, result, func(a, b query.Result) int {
			if a.Score != b.Score {
				if a.Score > b.Score {
					return -1
				}
				return 1
			}
			return a.Root.Compare(b.Root)
		})
		if top = slices.Insert(top, at, result); len(top) > k {
			top = top[:k]
		}
	}
	return top, stats
}

// entry is a posting in Dewey form: ranked access reads each list whole,
// its identifiers resolved.
type entry struct {
	ID    xmltree.Dewey
	Score float64
}

// entries decodes a list to its Dewey form, resolving keys through the
// list's table.
func entries(c *dil.CompactList) []entry {
	ids := c.IDs()
	out := make([]entry, 0, c.Len())
	for cu := dil.NewCursor(c); cu.Valid(); {
		run, _ := cu.Run()
		for _, p := range run {
			out = append(out, entry{ID: ids.ID(p.Key), Score: p.Score})
		}
	}
	return out
}

// ranked holds the two orderings of each list.
type ranked struct {
	lists [][]entry // Dewey order
	decay float64

	byScore [][]int // per list: posting indices in descending-score order
	next    []int   // per list: frontier position in byScore
}

func (r *ranked) init() {
	n := len(r.lists)
	r.byScore = make([][]int, n)
	r.next = make([]int, n)
	for j, l := range r.lists {
		idx := make([]int, len(l))
		for i := range idx {
			idx[i] = i
		}
		// Descending score, ascending Dewey tie-break: deterministic.
		sortIdx(idx, l)
		r.byScore[j] = idx
	}
}

func sortIdx(idx []int, l []entry) {
	sort.Slice(idx, func(i, j int) bool {
		a, b := idx[i], idx[j]
		if l[a].Score != l[b].Score {
			return l[a].Score > l[b].Score
		}
		return l[a].ID.Compare(l[b].ID) < 0
	})
}

func (r *ranked) frontierScore(j int) float64 {
	if r.next[j] >= len(r.byScore[j]) {
		return 0
	}
	return r.lists[j][r.byScore[j][r.next[j]]].Score
}

// bestFrontier picks the list with the highest unconsumed score, -1 if
// all drained.
func (r *ranked) bestFrontier() int {
	best, bestScore := -1, math.Inf(-1)
	for j := range r.lists {
		if r.next[j] >= len(r.byScore[j]) {
			continue
		}
		if s := r.frontierScore(j); s > bestScore {
			best, bestScore = j, s
		}
	}
	return best
}

func (r *ranked) pop(j int) entry {
	p := r.lists[j][r.byScore[j][r.next[j]]]
	r.next[j]++
	return p
}

// maxLCP returns the length of the longest common prefix between id and
// any posting of list j — achieved at id's immediate neighbors in Dewey
// order.
func (r *ranked) maxLCP(id xmltree.Dewey, j int) int {
	l := r.lists[j]
	pos := searchDewey(l, id)
	best := 0
	if pos < len(l) {
		if n := lcp(id, l[pos].ID); n > best {
			best = n
		}
	}
	if pos > 0 {
		if n := lcp(id, l[pos-1].ID); n > best {
			best = n
		}
	}
	return best
}

// searchDewey finds the first index whose ID is >= id.
func searchDewey(l []entry, id xmltree.Dewey) int {
	lo, hi := 0, len(l)
	for lo < hi {
		mid := (lo + hi) / 2
		if l[mid].ID.Compare(id) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func lcp(a, b xmltree.Dewey) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// coverOf computes the deepest ancestor of id whose subtree contains a
// posting of every keyword — the unique result candidate containing id.
func (r *ranked) coverOf(id xmltree.Dewey, owner int) (xmltree.Dewey, bool) {
	depth := len(id)
	for j := range r.lists {
		if j == owner {
			continue
		}
		l := r.maxLCP(id, j)
		if l == 0 {
			return nil, false // not even the same document
		}
		if l < depth {
			depth = l
		}
	}
	return id[:depth].Clone(), true
}

// subtreeRange returns the index range [lo, hi) of list j's postings
// within the subtree rooted at root.
func (r *ranked) subtreeRange(root xmltree.Dewey, j int) (int, int) {
	l := r.lists[j]
	lo := searchDewey(l, root)
	hi := lo
	for hi < len(l) && root.IsAncestorOrSelf(l[hi].ID) {
		hi++
	}
	return lo, hi
}

// mostSpecific verifies equation (1)'s condition: no single child
// subtree of root covers all keywords (a deeper cover necessarily lies
// within one child).
func (r *ranked) mostSpecific(root xmltree.Dewey) bool {
	lo, hi := r.subtreeRange(root, 0)
	checked := make(map[int32]bool)
	for i := lo; i < hi; i++ {
		id := r.lists[0][i].ID
		if len(id) <= len(root) {
			continue // posting on root itself cannot be inside a child
		}
		ord := id[len(root)]
		if checked[ord] {
			continue
		}
		checked[ord] = true
		child := root.Child(ord)
		all := true
		for j := 1; j < len(r.lists); j++ {
			clo, chi := r.subtreeRange(child, j)
			if clo >= chi {
				all = false
				break
			}
		}
		if all {
			return false
		}
	}
	return true
}

// score computes the exact result for root per equations (2)-(4),
// scanning each list's subtree range.
func (r *ranked) score(root xmltree.Dewey) query.Result {
	res := query.Result{
		Root:       root,
		PerKeyword: make([]float64, len(r.lists)),
		Matches:    make([]query.Match, len(r.lists)),
	}
	for j := range r.lists {
		lo, hi := r.subtreeRange(root, j)
		best := 0.0
		var bestMatch query.Match
		for i := lo; i < hi; i++ {
			p := r.lists[j][i]
			s := p.Score * math.Pow(r.decay, float64(len(p.ID)-len(root)))
			if s > best {
				best = s
				bestMatch = query.Match{ID: p.ID.Clone(), Score: p.Score}
			}
		}
		res.PerKeyword[j] = best
		res.Matches[j] = bestMatch
		res.Score += best
	}
	return res
}
