package query

import (
	"container/heap"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/dil"
	"repro/internal/xmltree"
)

// The fast DIL merge. Same contract as the reference runDIL
// (reference_test.go), different machinery, built for the cache-miss
// hot path (DESIGN.md §12):
//
//   - The next posting in global Dewey order comes from a loser tree
//     over per-list cursors: O(log k) comparisons per posting instead
//     of merger.next()'s O(k) scan.
//   - Conjunctive semantics are exploited at document granularity.
//     Every result lies inside a single document (a result's root path
//     begins with a document component), so a document missing even
//     one keyword can produce nothing. Between documents the merge
//     zig-zags: each cursor seeks to the largest current document ID
//     among all cursors, repeatedly, until they agree — and compact
//     lists jump whole blocks via their skip entries without decoding
//     the postings in between. The rarest keyword therefore drives the
//     pace, and the common keywords' postings in documents it never
//     touches are never even decoded.
//   - The XRANK stack reuses everything: entries (with their per
//     keyword score and match buffers) stay allocated across pushes,
//     pops, and — via a sync.Pool of whole merge states — across
//     merges. Steady-state merging allocates only the results it
//     returns.
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

// fastEntry is one stack element of the pooled merge. Unlike the
// reference merge's stackEntry, its score/match buffers (including
// each Match's Dewey slice) are owned by the entry and reused across
// pushes; identifiers are copied in and out rather than aliased.
type fastEntry struct {
	component    int32
	childCovered bool
	scores       []float64
	matches      []Match
}

// mergeRun is the reusable state of one fast merge: cursors, the loser
// tree, and the XRANK stack. Obtained from mergePool; holds no
// references to caller data after release.
type mergeRun struct {
	k       int
	cursors []dil.Cursor
	tree    []int // loser tree internal nodes 1..k-1: the loser's cursor index
	win     []int // scratch winners used while (re)building the tree
	winner  int   // cursor index holding the smallest current posting
	stack   []fastEntry
	depth   int // live prefix of stack; entries above keep their buffers
	path    xmltree.Dewey
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
	if cap(m.tree) < k {
		m.tree = make([]int, k)
	}
	m.tree = m.tree[:k]
	m.depth = 0
	m.path = m.path[:0]
	m.results = nil // handed to the caller; never reused
	m.limit = limit
	m.top = nil // handed to the caller; never reused
	if limit > 0 {
		m.top = make(topKHeap, 0, limit+1)
	}
	m.prune = false
	m.docsSkipped = 0
	m.earlyTerm = false
	m.postings = 0
}

// less orders cursors by current posting: Dewey order, exhausted
// cursors last, ties by cursor index (the order lists were given in,
// matching the reference merger's scan).
func (m *mergeRun) less(a, b int) bool {
	ca, cb := &m.cursors[a], &m.cursors[b]
	av, bv := ca.Valid(), cb.Valid()
	if !av || !bv {
		return av
	}
	if c := ca.Cur().Compare(cb.Cur()); c != 0 {
		return c < 0
	}
	return a < b
}

// build (re)builds the loser tree bottom-up in O(k): internal nodes
// 1..k-1 with leaves at virtual positions k..2k-1 (leaf j holds cursor
// j-k), so parent(x) = x/2 for every node. Each internal node stores
// the loser of its subtree's final; the overall winner lands in
// m.winner.
func (m *mergeRun) build() {
	k := m.k
	if k == 1 {
		m.winner = 0
		return
	}
	if cap(m.win) < 2*k {
		m.win = make([]int, 2*k)
	}
	m.win = m.win[:2*k]
	for node := 2*k - 1; node >= k; node-- {
		m.win[node] = node - k
	}
	for node := k - 1; node >= 1; node-- {
		w, l := m.win[2*node], m.win[2*node+1]
		if m.less(l, w) {
			w, l = l, w
		}
		m.tree[node] = l
		m.win[node] = w
	}
	m.winner = m.win[1]
}

// adjust replays the winner's path to the root after its cursor moved:
// O(log k) comparisons against the stored losers.
func (m *mergeRun) adjust() {
	if m.k == 1 {
		return
	}
	s := m.winner
	for t := (s + m.k) / 2; t >= 1; t /= 2 {
		if m.less(m.tree[t], s) {
			s, m.tree[t] = m.tree[t], s
		}
	}
	m.winner = s
}

// align zig-zag-seeks every cursor to the smallest document all lists
// still share: each round seeks laggards to the largest current
// document ID, which may raise the target again, until a fixed point.
// False means some list is exhausted — under conjunctive semantics no
// further document can produce a result. On success the loser tree is
// rebuilt over the moved cursors.
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
			break
		}
	}
	m.build()
	return true
}

// push opens a stack entry for one more path component, reusing the
// entry (and its buffers) left behind by an earlier pop.
func (m *mergeRun) push(comp int32) {
	if m.depth == len(m.stack) {
		m.stack = append(m.stack, fastEntry{})
	}
	e := &m.stack[m.depth]
	m.depth++
	e.component = comp
	e.childCovered = false
	if len(e.scores) != m.k {
		e.scores = make([]float64, m.k)
		e.matches = make([]Match, m.k)
	} else {
		for i := range e.scores {
			e.scores[i] = 0
			e.matches[i].Score = 0
			e.matches[i].ID = e.matches[i].ID[:0]
		}
	}
	m.path = append(m.path, comp)
}

// pop finalizes the deepest entry exactly as runDIL's pop does: emit
// if it is a most-specific cover, then propagate decayed maxima to the
// parent — copying identifiers into the parent's own buffers.
func (m *mergeRun) pop(decay float64) {
	e := &m.stack[m.depth-1]
	all := true
	for _, s := range e.scores {
		if s <= 0 {
			all = false
			break
		}
	}
	if all && !e.childCovered {
		total := 0.0
		for _, s := range e.scores {
			total += s
		}
		// With a result limit, a candidate that cannot beat the current
		// k-th best is dropped before its buffers are cloned. Ties are
		// dropped too: results emit in ascending Dewey order, so a
		// candidate tying the heap minimum is Dewey-larger than every
		// retained result of that score and loses the final sort's
		// tie-break — exactly the result sort+truncate would discard.
		// (RDIL must keep ties because it consumes in score order; here
		// the emission order decides them for us.)
		if m.limit <= 0 || len(m.top) < m.limit || total > m.top[0].Score {
			r := Result{
				Root:       m.path.Clone(),
				Score:      total,
				PerKeyword: append([]float64(nil), e.scores...),
				Matches:    make([]Match, m.k),
			}
			for i, em := range e.matches {
				r.Matches[i] = Match{ID: em.ID.Clone(), Score: em.Score}
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
	}
	if m.depth > 1 {
		parent := &m.stack[m.depth-2]
		if all || e.childCovered {
			parent.childCovered = true
		}
		for i := range e.scores {
			if p := e.scores[i] * decay; p > parent.scores[i] {
				parent.scores[i] = p
				parent.matches[i].Score = e.matches[i].Score
				parent.matches[i].ID = append(parent.matches[i].ID[:0], e.matches[i].ID...)
			}
		}
	}
	m.depth--
	m.path = m.path[:len(m.path)-1]
}

// apply feeds one posting to the stack (runDIL's loop body).
func (m *mergeRun) apply(id xmltree.Dewey, score float64, kw int, decay float64) {
	lcp := 0
	for lcp < len(m.path) && lcp < len(id) && m.path[lcp] == id[lcp] {
		lcp++
	}
	for m.depth > lcp {
		m.pop(decay)
	}
	for len(m.path) < len(id) {
		m.push(id[len(m.path)])
	}
	e := &m.stack[m.depth-1]
	if score > e.scores[kw] {
		e.scores[kw] = score
		e.matches[kw].Score = score
		e.matches[kw].ID = append(e.matches[kw].ID[:0], id...)
	}
	m.postings++
}

// run drives the merge: align on a shared document, drain its postings
// through the loser tree into the stack, flush, repeat. With pruning
// armed and the heap full, each aligned document is first tested
// against the running threshold — the k-th best score so far — using
// the block-max upper bounds, and skipped whole when it cannot qualify;
// the merge terminates outright once even the lists' remaining maxima
// cannot reach the threshold.
func (m *mergeRun) run(decay float64) {
	for m.align() {
		doc := m.cursors[m.winner].DocID()
		if m.prune && len(m.top) == m.limit {
			// The threshold algebra (DESIGN.md §16): a result's score is
			// Σ over keywords of max over its subtree's postings of
			// NS·decay^dist. With decay ≤ 1 each keyword contributes at
			// most its maximum raw posting score, so Σ of per-cursor
			// maxima bounds every result the remaining postings can form.
			// Bounds that only tie the threshold are prunable: the tying
			// result would lose the ascending-Dewey tie-break (see pop).
			thr := m.top[0].Score
			remaining := 0.0
			for i := range m.cursors {
				remaining += m.cursors[i].RemainingMax()
			}
			if remaining <= thr {
				m.earlyTerm = true
				return
			}
			docBound := 0.0
			for i := range m.cursors {
				docBound += m.cursors[i].DocBound(doc)
			}
			if docBound <= thr {
				m.docsSkipped++
				if doc == math.MaxInt32 || !m.seekPast(doc) {
					return
				}
				continue
			}
		}
		for {
			cu := &m.cursors[m.winner]
			if !cu.Valid() || cu.DocID() != doc {
				break
			}
			m.apply(cu.Cur(), cu.Score(), m.winner, decay)
			cu.Advance()
			m.adjust()
		}
		// The document's subtree is complete; emit and clear the stack
		// before seeking to the next shared document.
		for m.depth > 0 {
			m.pop(decay)
		}
	}
}

// seekPast advances every cursor beyond doc without decoding its
// postings. False means some list drained — the merge is done.
func (m *mergeRun) seekPast(doc int32) bool {
	for i := range m.cursors {
		if !m.cursors[i].SeekDoc(doc + 1) {
			return false
		}
	}
	return true
}

// runFast merges per-keyword lists with the loser-tree/zig-zag
// machinery. compact[i], when non-nil, supplies list i in block form
// (its cursor decodes lazily and skips via block entries); otherwise a
// plain cursor over lists[i] is used, with binary-searched seeks.
//
// limit <= 0 returns every result, unranked (the exhaustive merge).
// limit > 0 returns the exact top-limit, sorted by descending score
// with ascending-Dewey tie-break — byte-identical to sorting and
// truncating the exhaustive output — maintained in an in-merge heap;
// when the decay is within [0, 1] (pruning is unsound otherwise: a
// decay above 1 amplifies deep postings beyond their raw scores) the
// merge additionally skips whole documents, and terminates, on the
// block-max upper bounds.
//
// The second return carries this merge's posting/skip counts; the
// process-wide totals are bumped as well.
func runFast(lists []dil.List, compact []*dil.CompactList, decay float64, limit int) ([]Result, MergeCounters) {
	k := len(lists)
	if k == 0 {
		k = len(compact)
	}
	if k == 0 {
		return nil, MergeCounters{}
	}
	isCompact := func(i int) bool {
		return compact != nil && i < len(compact) && compact[i] != nil
	}
	for i := 0; i < k; i++ {
		n := 0
		if isCompact(i) {
			n = compact[i].Len()
		} else {
			n = len(lists[i])
		}
		if n == 0 {
			return nil, MergeCounters{} // conjunctive semantics
		}
	}
	m := mergePool.Get().(*mergeRun)
	m.reset(k, limit)
	m.prune = limit > 0 && decay >= 0 && decay <= 1
	for i := 0; i < k; i++ {
		if isCompact(i) {
			m.cursors[i].SetCompact(compact[i])
		} else {
			m.cursors[i].SetList(lists[i])
		}
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
		m.cursors[i].SetList(nil) // drop references to caller data
	}
	mergePool.Put(m)
	mergeTotals.postings.Add(c.Postings)
	mergeTotals.blocksSkipped.Add(c.BlocksSkipped)
	mergeTotals.docsSkipped.Add(c.DocsSkipped)
	mergeTotals.earlyTerms.Add(c.EarlyTerminations)
	return results, c
}
