package query

import (
	"container/heap"
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
//   - The XRANK stack is sparse (entries for posting elements and
//     branch points only) and flat (per-entry rows in shared slices),
//     and a match is an index into its keyword's run: identifiers are
//     cloned only into emitted results. Its buffers, and the cursors',
//     are reused across merges via a sync.Pool of whole merge states,
//     so steady-state merging allocates only the results it returns.
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
// current document's runs, and the sparse XRANK stack. Obtained from
// mergePool; holds no references to caller data after release.
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
	runs    [][]dil.Entry   // runs[kw]: the current document's postings of list kw
	pos     []int           // pos[kw]: next unconsumed posting of runs[kw]
	heads   []xmltree.Dewey // heads[kw]: that posting's identifier, nil once runs[kw] is drained

	depth   []int         // per entry: its element's depth (a prefix length of path)
	covered []bool        // per entry: some descendant already covered all keywords
	scores  []float64     // entry*k+kw: propagated best score of keyword kw
	matches []int32       // entry*k+kw: index into runs[kw] of that score's posting
	n       int           // live entries
	path    xmltree.Dewey // the last posting's identifier, a view into its run

	results []Result

	// Top-k machinery (limit > 0): the running top-limit min-heap the
	// threshold is read from. The heap is allocated per merge — its
	// entries are handed to the caller on extraction.
	limit       int
	top         topKHeap
	prune       bool // bound-based skipping enabled (limit > 0, sane decay)
	docsSkipped int64
	earlyTerm   bool

	postings int64
}

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
		m.runs, m.pos, m.heads = make([][]dil.Entry, k), make([]int, k), make([]xmltree.Dewey, k)
	}
	m.runs, m.pos, m.heads = m.runs[:k], m.pos[:k], m.heads[:k]
	m.depth, m.covered = m.depth[:0], m.covered[:0]
	m.scores, m.matches = m.scores[:0], m.matches[:0]
	m.n = 0
	m.path = nil
	m.results = nil // handed to the caller; never reused
	m.limit = limit
	m.top = nil // handed to the caller; never reused
	if limit > 0 {
		m.top = newTopKHeap(limit)
	}
	m.prune = false
	m.docsSkipped = 0
	m.earlyTerm = false
	m.postings = 0
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

// push opens an entry for the element at depth d with zeroed scores.
// Match slots are left stale: a match is read only where its score is
// positive, and every positive score is written with its match.
func (m *mergeRun) push(d int) {
	e := m.n
	m.n++
	if e == len(m.depth) {
		m.depth = append(m.depth, 0)
		m.covered = append(m.covered, false)
		for i := 0; i < m.k; i++ {
			m.scores = append(m.scores, 0)
			m.matches = append(m.matches, 0)
		}
	}
	m.depth[e], m.covered[e] = d, false
	clear(m.scores[e*m.k : (e+1)*m.k])
}

// pop finalizes the top entry exactly as runDIL's per-level pops would
// finalize its element and the single-child elements above it: emit
// if it is a most-specific cover, then fold its scores into the entry
// at depth max(lcp, depth of the entry below). When the entry below
// is shallower than lcp, a fresh branch entry at lcp takes the popped
// entry's slot. With lcp 0 and nothing below (a document flush) there is
// nothing to fold into.
//
// Each skipped level multiplies by decay and clamps to 0 whenever the
// product is not > 0 — the same float operations and max tests the
// per-level pops perform on zero-initialized intermediate entries, so
// the result is bit-identical for any decay.
func (m *mergeRun) pop(lcp int, decay float64) {
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
		m.depth[e] = lcp
		m.covered[e] = false
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

// emit records entry e as a result, cloning its root and matches out
// of the runs. With a result limit, a candidate that cannot beat the
// current k-th best is dropped before anything is cloned. Ties are
// dropped too: results emit in ascending Dewey order, so a candidate
// tying the heap minimum is Dewey-larger than every retained result of
// that score and loses the final sort's tie-break — exactly the result
// sort+truncate would discard. (RDIL must keep ties because it
// consumes in score order; here the emission order decides them.)
func (m *mergeRun) emit(e int, row []float64) {
	total := 0.0
	for _, s := range row {
		total += s
	}
	if m.limit > 0 && len(m.top) >= m.limit && !(total > m.top[0].Score) {
		return
	}
	// The root and the match identifiers are cloned into one block,
	// each a full slice of its own.
	matches := m.matches[e*m.k : e*m.k+m.k]
	root := m.path[:m.depth[e]]
	n := len(root)
	for i, j := range matches {
		n += len(m.runs[i][j].ID)
	}
	ids := append(make(xmltree.Dewey, 0, n), root...)
	r := Result{
		Root:       ids[:len(root):len(root)],
		Score:      total,
		PerKeyword: append([]float64(nil), row...),
		Matches:    make([]Match, m.k),
	}
	for i, j := range matches {
		p := &m.runs[i][j]
		start := len(ids)
		ids = append(ids, p.ID...)
		r.Matches[i] = Match{ID: ids[start:len(ids):len(ids)], Score: p.Score}
	}
	if m.limit > 0 {
		heap.Push(&m.top, r)
		if len(m.top) > m.limit {
			heap.Pop(&m.top)
		}
	} else {
		m.results = append(m.results, r)
	}
}

// apply feeds posting j of runs[kw] to the stack (runDIL's loop body).
func (m *mergeRun) apply(kw, j int, decay float64) {
	p := &m.runs[kw][j]
	id := p.ID
	lcp := 0
	for lcp < len(m.path) && lcp < len(id) && m.path[lcp] == id[lcp] {
		lcp++
	}
	for m.n > 0 && m.depth[m.n-1] > lcp {
		m.pop(lcp, decay)
	}
	if m.n == 0 || m.depth[m.n-1] < len(id) {
		m.push(len(id))
	}
	m.path = id
	if c := (m.n-1)*m.k + kw; p.Score > m.scores[c] {
		m.scores[c] = p.Score
		m.matches[c] = int32(j)
	}
	m.postings++
}

// mergeDoc drains the current document's runs into the stack in
// global Dewey order — a min-scan over the k run heads, ties to the
// lower list index as in the reference merger — then flushes the
// stack: every result lies inside one document.
func (m *mergeRun) mergeDoc(decay float64) {
	for {
		best := -1
		var bid xmltree.Dewey
		for i, h := range m.heads {
			if h != nil && (best < 0 || docLess(h, bid)) {
				best, bid = i, h
			}
		}
		if best < 0 {
			break
		}
		j := m.pos[best]
		m.apply(best, j, decay)
		if j++; j < len(m.runs[best]) {
			m.heads[best] = m.runs[best][j].ID
		} else {
			m.heads[best] = nil
		}
		m.pos[best] = j
	}
	for m.n > 0 {
		m.pop(0, decay)
	}
	m.path = nil
}

// docLess reports whether a precedes b in Dewey order, for identifiers
// of one document (component 0 is equal and skipped).
func docLess(a, b xmltree.Dewey) bool {
	n := min(len(a), len(b))
	for i := 1; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
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
			if remaining <= m.top[0].Score {
				m.earlyTerm = true
				return
			}
		}
		docBound := 0.0
		for i := range m.cursors {
			var max float64
			m.runs[i], max = m.cursors[i].Run()
			m.pos[i], m.heads[i] = 0, m.runs[i][0].ID
			docBound += max
		}
		if full && docBound <= m.top[0].Score {
			m.docsSkipped++
			continue
		}
		m.mergeDoc(decay)
	}
}

// runFast merges per-keyword lists with the zig-zag/run machinery:
// each list gets a cursor that decodes lazily, skips by the block
// table, and feeds the merge its document runs (Cursor.Run).
//
// limit <= 0 returns every result, unranked (the exhaustive merge).
// limit > 0 returns the exact top-limit, sorted by descending score
// with ascending-Dewey tie-break — byte-identical to sorting and
// truncating the exhaustive output — maintained in an in-merge heap;
// when the decay is within [0, 1] (pruning is unsound otherwise: a
// decay above 1 amplifies deep postings beyond their raw scores) the
// merge additionally skips whole documents on their runs' maxima, and
// terminates on the lists' remaining maxima.
//
// The second return carries this merge's posting/skip counts; the
// process-wide totals are bumped as well.
func runFast(lists []resolved, decay float64, limit int) ([]Result, MergeCounters) {
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
	m.prune = limit > 0 && decay >= 0 && decay <= 1
	for i, l := range lists {
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
	results := m.results
	m.results = nil
	if limit > 0 {
		// Drain the heap back to front: descending score, Dewey tie-break
		// ascending — the engine's presentation order.
		results = make([]Result, len(m.top))
		for i := len(m.top) - 1; i >= 0; i-- {
			results[i] = heap.Pop(&m.top).(Result)
		}
		m.top = nil
	}
	for i := range m.cursors {
		m.cursors[i].Set(nil) // drop references to caller data
	}
	clear(m.runs)
	clear(m.heads)
	mergePool.Put(m)
	mergeTotals.postings.Add(c.Postings)
	mergeTotals.blocksSkipped.Add(c.BlocksSkipped)
	mergeTotals.docsSkipped.Add(c.DocsSkipped)
	mergeTotals.earlyTerms.Add(c.EarlyTerminations)
	return results, c
}
