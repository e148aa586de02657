package query

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/dil"
	"repro/internal/xmltree"
)

// The fast DIL merge. Same contract as the reference runDIL
// (reference_test.go), different machinery, built for the cache-miss
// hot path (DESIGN.md §12):
//
//   - Conjunctive semantics are exploited at document granularity.
//     Every result lies inside a single document (a result's root path
//     begins with a document component), so a document missing even
//     one keyword can produce nothing. Between documents the merge
//     zig-zags: each cursor seeks to the largest current document ID
//     among all cursors, repeatedly, until they agree — and the
//     cursors jump whole blocks on their lists' block tables without
//     decoding the postings in between. The rarest keyword therefore drives the
//     pace, and the common keywords' postings in documents it never
//     touches are never even decoded.
//   - Each aligned document is consumed as k short runs, one per list,
//     merged by a min-scan over the run heads; a run's maximum score is
//     the document's top-k bound for that list.
//   - The merge runs on element keys. Keys number a stage's elements
//     in Dewey order, so the run heads compare as integers, and the
//     stage's table (dil.Keys) gives a posting's depth and its lowest
//     common ancestor with the previous posting by climbing parent
//     keys. The XRANK stack is sparse (entries for posting elements
//     and branch points only) and flat (per-entry rows in shared
//     slices); a candidate result is its root key, match keys and
//     scores. Dewey identifiers are looked up only for the results
//     returned — the page after the offset. The merge's buffers, and
//     the cursors', are reused across merges via a sync.Pool of whole
//     merge states, so steady-state merging allocates only the results
//     it returns.
//
// runDIL (reference_test.go) remains the reference implementation;
// TestMergeEquivalence and FuzzMergeEquivalence in merge_test.go hold
// the two to identical output.

// MergeCounters count the work of one fast merge — and, summed into the
// process-wide totals, back the query_merge_* series on /metrics.
type MergeCounters struct {
	// Postings is how many postings the fast merge consumed (scored).
	Postings int64
	// BlocksSkipped is how many whole posting-list blocks document
	// zig-zag seeks bypassed without decoding.
	BlocksSkipped int64
	// DocsSkipped is how many aligned documents the top-k threshold
	// pruned without scoring a single posting.
	DocsSkipped int64
	// EarlyTerminations is how many merges ended before the lists were
	// drained because no remaining posting could reach the top k (0 or 1
	// for a single merge).
	EarlyTerminations int64
}

var mergeTotals struct {
	postings      atomic.Int64
	blocksSkipped atomic.Int64
	docsSkipped   atomic.Int64
	earlyTerms    atomic.Int64
}

// MergeCountersSnapshot reads the process-wide fast-merge counters.
func MergeCountersSnapshot() MergeCounters {
	return MergeCounters{
		Postings:          mergeTotals.postings.Load(),
		BlocksSkipped:     mergeTotals.blocksSkipped.Load(),
		DocsSkipped:       mergeTotals.docsSkipped.Load(),
		EarlyTerminations: mergeTotals.earlyTerms.Load(),
	}
}

// mergeRun is the reusable state of one fast merge: cursors, the
// current document's runs, the sparse XRANK stack and the candidate
// results. Obtained from mergePool; holds no references to caller data
// after release.
//
// The stack holds entries only for posting elements and for branch
// points (the depth at which a posting leaves the current path). An
// element strictly between two entries has one child and no posting,
// so it can neither emit nor be covered differently from that child;
// pop folds it in by multiplying by decay once per skipped level. Per
// entry state lives in flat rows indexed entry*k+kw.
type mergeRun struct {
	k       int
	cursors []dil.Cursor
	runs    [][]dil.Posting // runs[kw]: the current document's postings of list kw
	pos     []int           // pos[kw]: next unconsumed posting of runs[kw]
	heads   []int32         // heads[kw]: that posting's key, drained once runs[kw] is

	ids  dil.IDs   // the table every list's keys index
	keys *dil.Keys // the current document's stage table
	off  int32     // the key of keys' first element
	last int32     // the last posting's key in keys, -1 at a document's start

	key     []int32   // per entry: its element's key in keys
	depth   []int     // per entry: its element's depth
	covered []bool    // per entry: some descendant already covered all keywords
	scores  []float64 // entry*k+kw: propagated best score of keyword kw
	matches []int32   // entry*k+kw: index into runs[kw] of that score's posting
	n       int       // live entries

	// The candidate results, one slot each: root key and score, and
	// rows slot*k+kw of per-keyword scores, match keys and match node
	// scores.
	roots   []int32
	totals  []float64
	per     []float64
	mkeys   []int32
	mscores []float64

	// Top-k machinery (limit > 0): a min-heap of the best limit slots,
	// the weakest at the root, whose score is the threshold.
	limit       int
	top         []int32
	prune       bool // bound-based skipping enabled (limit > 0, sane decay)
	docsSkipped int64
	earlyTerm   bool

	postings int64
}

// drained is a run head past its run: above every element key.
const drained = math.MaxInt32

var mergePool = sync.Pool{New: func() any { return &mergeRun{} }}

// reset prepares the state for a k-way merge, retaining every buffer.
func (m *mergeRun) reset(k, limit int) {
	m.k = k
	// Grow the cursor pool without discarding existing cursors — their
	// decode scratch buffers are the point of pooling.
	for cap(m.cursors) < k {
		m.cursors = append(m.cursors[:cap(m.cursors)], dil.Cursor{})
	}
	m.cursors = m.cursors[:k]
	if cap(m.runs) < k {
		m.runs, m.pos, m.heads = make([][]dil.Posting, k), make([]int, k), make([]int32, k)
	}
	m.runs, m.pos, m.heads = m.runs[:k], m.pos[:k], m.heads[:k]
	m.key, m.depth, m.covered = m.key[:0], m.depth[:0], m.covered[:0]
	m.scores, m.matches = m.scores[:0], m.matches[:0]
	m.n = 0
	m.roots, m.totals, m.per, m.mkeys, m.mscores = m.roots[:0], m.totals[:0], m.per[:0], m.mkeys[:0], m.mscores[:0]
	m.limit, m.top = limit, m.top[:0]
	m.prune, m.docsSkipped, m.earlyTerm, m.postings = false, 0, false, 0
}

// align zig-zag-seeks every cursor to the smallest document all lists
// still share: each round seeks laggards to the largest current
// document ID, which may raise the target again, until a fixed point.
// False means some list is exhausted — under conjunctive semantics no
// further document can produce a result.
func (m *mergeRun) align() bool {
	target := int32(-1)
	for i := range m.cursors {
		cu := &m.cursors[i]
		if !cu.Valid() {
			return false
		}
		if d := cu.DocID(); d > target {
			target = d
		}
	}
	for {
		raised := false
		for i := range m.cursors {
			cu := &m.cursors[i]
			if cu.DocID() < target {
				if !cu.SeekDoc(target) {
					return false
				}
			}
			if d := cu.DocID(); d > target {
				target, raised = d, true
			}
		}
		if !raised {
			return true
		}
	}
}

// push opens an entry for the element with key and depth d, with
// zeroed scores. Match slots are left stale: a match is read only
// where its score is positive, and every positive score is written
// with its match.
func (m *mergeRun) push(key int32, d int) {
	e := m.n
	m.n++
	if e == len(m.depth) {
		m.key = append(m.key, 0)
		m.depth = append(m.depth, 0)
		m.covered = append(m.covered, false)
		for i := 0; i < m.k; i++ {
			m.scores = append(m.scores, 0)
			m.matches = append(m.matches, 0)
		}
	}
	m.key[e], m.depth[e], m.covered[e] = key, d, false
	clear(m.scores[e*m.k : (e+1)*m.k])
}

// pop finalizes the top entry exactly as runDIL's per-level pops would
// finalize its element and the single-child elements above it: emit
// if it is a most-specific cover, then fold its scores into the entry
// at depth max(lcp, depth of the entry below). When the entry below
// is shallower than lcp, a fresh branch entry for lca, the element at
// depth lcp, takes the popped entry's slot. With lcp 0 and nothing
// below (a document flush) there is nothing to fold into.
//
// Each skipped level multiplies by decay and clamps to 0 whenever the
// product is not > 0 — the same float operations and max tests the
// per-level pops perform on zero-initialized intermediate entries, so
// the result is bit-identical for any decay.
func (m *mergeRun) pop(lcp int, lca int32, decay float64) {
	k := m.k
	e := m.n - 1
	row := m.scores[e*k : e*k+k]
	all := true
	for _, s := range row {
		if s <= 0 {
			all = false
			break
		}
	}
	if all && !m.covered[e] {
		m.emit(e, row)
	}
	covered := all || m.covered[e]
	d := m.depth[e]
	m.n--
	var to int
	switch {
	case e > 0 && m.depth[e-1] >= lcp:
		to = e - 1
	case lcp > 0:
		// A branch entry: zero scores, so the fold below is a plain
		// overwrite and the match indices carry over in place.
		to = e
		m.n++
		m.key[e], m.depth[e], m.covered[e] = lca, lcp, false
	default:
		return
	}
	if covered {
		m.covered[to] = true
	}
	levels := d - m.depth[to]
	dst := m.scores[to*k : to*k+k]
	for i, v := range row {
		if v <= 0 {
			continue // a zero score folds to zero; dst already holds >= 0
		}
		for l := 0; l < levels && v > 0; l++ {
			if v *= decay; !(v > 0) {
				v = 0
			}
		}
		if to == e {
			dst[i] = v
		} else if v > dst[i] {
			dst[i] = v
			m.matches[to*k+i] = m.matches[e*k+i]
		}
	}
}

// emit records entry e as a candidate result: its root key, score and
// row, and the key and node score of each match. With a result limit,
// a candidate that cannot beat the current k-th best is dropped, and
// one that can takes the weakest one's slot. Ties are dropped too:
// results emit in ascending key (Dewey) order, so a candidate tying the
// heap minimum is key-larger than every retained result of that score
// and loses the final sort's tie-break — exactly the result
// sort+truncate would discard.
func (m *mergeRun) emit(e int, row []float64) {
	total := 0.0
	for _, s := range row {
		total += s
	}
	k, slot := m.k, len(m.roots)
	full := m.limit > 0 && len(m.top) == m.limit
	if full {
		if !(total > m.totals[m.top[0]]) {
			return
		}
		slot = int(m.top[0])
	} else {
		m.roots, m.totals = append(m.roots, 0), append(m.totals, 0)
		m.per, m.mscores = append(m.per, row...), append(m.mscores, row...)
		m.mkeys = append(m.mkeys, make([]int32, k)...)
	}
	m.roots[slot], m.totals[slot] = m.off+m.key[e], total
	c := slot * k
	copy(m.per[c:c+k], row)
	for i, j := range m.matches[e*k : e*k+k] {
		p := &m.runs[i][j]
		m.mkeys[c+i], m.mscores[c+i] = p.Key, p.Score
	}
	switch {
	case full:
		m.down(0)
	case m.limit > 0:
		m.top = append(m.top, int32(slot))
		m.up(len(m.top) - 1)
	}
}

// ranked orders candidate slots for presentation: descending score,
// ascending key (Dewey) tie-break. The heap keeps the weakest — the
// last in this order — at its root.
func (m *mergeRun) ranked(a, b int32) int {
	if m.totals[a] != m.totals[b] {
		if m.totals[a] > m.totals[b] {
			return -1
		}
		return 1
	}
	return int(m.roots[a]) - int(m.roots[b])
}

// up and down restore the heap property of top from position i.
func (m *mergeRun) up(i int) {
	h := m.top
	for i > 0 {
		p := (i - 1) / 2
		if m.ranked(h[i], h[p]) <= 0 {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (m *mergeRun) down(i int) {
	h := m.top
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && m.ranked(h[c+1], h[c]) > 0 {
			c++
		}
		if m.ranked(h[c], h[i]) <= 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// apply feeds posting j of runs[kw] to the stack (runDIL's loop body).
// The common prefix with the previous posting is the depth of their
// lowest common ancestor.
func (m *mergeRun) apply(kw, j int, decay float64) {
	p := &m.runs[kw][j]
	key := p.Key - m.off
	lca, lcp := int32(-1), 0
	if m.last >= 0 {
		lca = m.keys.LCA(m.last, key)
		lcp = m.keys.Depth(lca)
	}
	for m.n > 0 && m.depth[m.n-1] > lcp {
		m.pop(lcp, lca, decay)
	}
	if d := m.keys.Depth(key); m.n == 0 || m.depth[m.n-1] < d {
		m.push(key, d)
	}
	m.last = key
	if c := (m.n-1)*m.k + kw; p.Score > m.scores[c] {
		m.scores[c] = p.Score
		m.matches[c] = int32(j)
	}
	m.postings++
}

// mergeDoc drains the current document's runs into the stack in
// global key order — a min-scan over the k run heads, ties to the
// lower list index as in the reference merger — then flushes the
// stack: every result lies inside one document, and so in one stage's
// table.
func (m *mergeRun) mergeDoc(decay float64) {
	m.keys, m.off = m.ids.Stage(m.heads[0])
	m.last = -1
	for {
		best, bk := -1, int32(drained)
		for i, h := range m.heads {
			if h < bk {
				best, bk = i, h
			}
		}
		if best < 0 {
			break
		}
		j := m.pos[best]
		m.apply(best, j, decay)
		if j++; j < len(m.runs[best]) {
			m.heads[best] = m.runs[best][j].Key
		} else {
			m.heads[best] = drained
		}
		m.pos[best] = j
	}
	for m.n > 0 {
		m.pop(0, -1, decay)
	}
}

// run drives the merge: align on a shared document, take each list's
// run of it, merge the runs into the stack, repeat. With pruning armed
// and the heap full, the merge terminates outright once even the
// lists' remaining maxima cannot reach the threshold (the k-th best
// score so far), and skips a document whose runs' maxima cannot.
func (m *mergeRun) run(decay float64) {
	for m.align() {
		full := m.prune && len(m.top) == m.limit
		if full {
			// The threshold algebra (DESIGN.md §16): a result's score is
			// Σ over keywords of max over its subtree's postings of
			// NS·decay^dist. With decay ≤ 1 each keyword contributes at
			// most its maximum raw posting score, so Σ of per-cursor
			// maxima bounds every result the remaining postings can form.
			// Bounds that only tie the threshold are prunable: the tying
			// result would lose the ascending-Dewey tie-break (see emit).
			remaining := 0.0
			for i := range m.cursors {
				remaining += m.cursors[i].RemainingMax()
			}
			if remaining <= m.totals[m.top[0]] {
				m.earlyTerm = true
				return
			}
		}
		docBound := 0.0
		for i := range m.cursors {
			var max float64
			m.runs[i], max = m.cursors[i].Run()
			m.pos[i], m.heads[i] = 0, m.runs[i][0].Key
			docBound += max
		}
		if full && docBound <= m.totals[m.top[0]] {
			m.docsSkipped++
			continue
		}
		m.mergeDoc(decay)
	}
}

// results resolves candidate slots, in order, to Results: the only
// place the merge reads Dewey identifiers. The results share their
// blocks — themselves, the identifiers, the per-keyword scores and the
// matches — each result's slices full of their own.
func (m *mergeRun) results(order []int32) []Result {
	if len(order) == 0 {
		return nil
	}
	k := m.k
	ids := make(xmltree.Dewey, 0, 8*(k+1)*len(order))
	clone := func(key int32) xmltree.Dewey {
		at := len(ids)
		ids = append(ids, m.ids.ID(key)...)
		return ids[at:len(ids):len(ids)]
	}
	out := make([]Result, len(order))
	per := make([]float64, len(order)*k)
	matches := make([]Match, len(order)*k)
	for i, s := range order {
		c, r := int(s)*k, i*k
		out[i] = Result{
			Root:       clone(m.roots[s]),
			Score:      m.totals[s],
			PerKeyword: per[r : r+k : r+k],
			Matches:    matches[r : r+k : r+k],
		}
		copy(out[i].PerKeyword, m.per[c:c+k])
		for j := range out[i].Matches {
			out[i].Matches[j] = Match{ID: clone(m.mkeys[c+j]), Score: m.mscores[c+j]}
		}
	}
	return out
}

// runFast merges per-keyword lists with the zig-zag/run machinery:
// each list gets a cursor that decodes lazily, skips by the block
// table, and feeds the merge its document runs (Cursor.Run).
//
// limit <= 0 returns every result, unranked, in document order.
// limit > 0 returns the exact top-limit after the first offset results,
// sorted by descending score with ascending-Dewey tie-break —
// byte-identical to sorting and truncating every result — maintained
// in an in-merge heap. With prune set and the decay within [0, 1]
// (pruning is unsound otherwise: a decay above 1 amplifies deep
// postings beyond their raw scores) the merge additionally skips whole
// documents on their runs' maxima, and terminates on the lists'
// remaining maxima.
//
// The second return carries this merge's posting/skip counts; the
// process-wide totals are bumped as well.
func runFast(lists []resolved, decay float64, limit, offset int, prune bool) ([]Result, MergeCounters) {
	k := len(lists)
	if k == 0 {
		return nil, MergeCounters{}
	}
	for _, l := range lists {
		if l.n() == 0 {
			return nil, MergeCounters{} // conjunctive semantics
		}
	}
	m := mergePool.Get().(*mergeRun)
	m.reset(k, limit)
	m.prune = prune && limit > 0 && decay >= 0 && decay <= 1
	// Every list of one merge indexes one table: the engine resolves a
	// query's keywords from one stage (its index, arena or builder),
	// and a dirty read pins all of them to the one state it acquired
	// (overlay.go). Key order is Dewey order only within one table.
	m.ids = lists[0].list.IDs()
	for i, l := range lists {
		if l.list.IDs() != m.ids {
			panic("query: the lists of one merge index different element tables")
		}
		m.cursors[i].Set(l.list)
	}
	m.run(decay)
	var c MergeCounters
	c.Postings = m.postings
	c.DocsSkipped = m.docsSkipped
	if m.earlyTerm {
		c.EarlyTerminations = 1
	}
	for i := range m.cursors {
		c.BlocksSkipped += m.cursors[i].BlocksSkipped()
	}
	order := m.top
	if limit > 0 {
		slices.SortFunc(order, m.ranked)
	} else { // every candidate, in emission order
		for s := range m.roots {
			order = append(order, int32(s))
		}
	}
	results := m.results(order[min(max(offset, 0), len(order)):])
	m.top = order[:0]
	for i := range m.cursors {
		m.cursors[i].Set(nil) // drop references to caller data
	}
	clear(m.runs)
	m.ids, m.keys = dil.IDs{}, nil
	mergePool.Put(m)
	mergeTotals.postings.Add(c.Postings)
	mergeTotals.blocksSkipped.Add(c.BlocksSkipped)
	mergeTotals.docsSkipped.Add(c.DocsSkipped)
	mergeTotals.earlyTerms.Add(c.EarlyTerminations)
	return results, c
}
