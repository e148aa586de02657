package ontoscore

import (
	"repro/internal/ontology"
)

// The expansion engine. All three strategies instantiate the same
// merged best-first search: every concept containing the keyword is
// seeded with its IRS score, and authority flows outward along
// strategy-specific transitions, each multiplying the score by a factor
// in (0, 1]. Multiple arrivals at a concept merge with max (the paper's
// Observation 1: parallel BFS instances are merged, propagating the
// aggregate). Because every transition factor is <= 1, a max-priority
// queue finalizes each concept at its true maximum over all paths —
// the fixpoint of equation (6) under max aggregation — while visiting
// each concept once, exactly the efficiency Observation 1 is after.
//
// The search runs over the frozen snapshot's dense concept numbering
// (ascending ConceptID), with no map anywhere: each strategy's
// transitions are precomputed once per computer as a flow table, and
// an expansion's working memory is pooled per computer.

// Dense is one keyword's OntoScores over a computer's dense concept
// numbering: Score[i] is the OntoScore of the concept at dense index
// Idx[i] (see Computer.Dense), in the order the expansion finalized
// them — by descending score, ties by ascending index. The zero value
// is the empty result.
type Dense struct {
	Idx   []int32
	Score []float64
}

// Len is the number of scored concepts.
func (d Dense) Len() int { return len(d.Idx) }

// flow is one strategy's transitions in CSR form: the flow steps
// leaving the concept at dense index i are to[start[i]:start[i+1]],
// with the matching factors. Steps with factor <= 0 carry no authority
// and are left out.
type flow struct {
	start  []int32
	to     []int32
	factor []float64
}

// buildFlow tabulates the transitions step enumerates for every
// concept of the snapshot, in dense order.
func buildFlow(g *ontology.Frozen, step func(id ontology.ConceptID, add func(to ontology.ConceptID, factor float64))) flow {
	// Two passes, so the table is allocated once at its exact size: a
	// computer keeps it for as long as its generation serves.
	n, steps := g.Len(), 0
	count := func(_ ontology.ConceptID, factor float64) {
		if factor > 0 {
			steps++
		}
	}
	for i := 0; i < n; i++ {
		step(g.ID(i), count)
	}
	f := flow{start: make([]int32, n+1), to: make([]int32, 0, steps), factor: make([]float64, 0, steps)}
	add := func(to ontology.ConceptID, factor float64) {
		if factor > 0 {
			d, _ := g.Dense(to)
			f.to = append(f.to, int32(d))
			f.factor = append(f.factor, factor)
		}
	}
	for i := 0; i < n; i++ {
		step(g.ID(i), add)
		f.start[i+1] = int32(len(f.to))
	}
	return f
}

// Expansion state of a dense concept.
const (
	unreached uint8 = iota
	pending         // queued; best holds its highest queued score
	settled         // finalized at best
)

// expander is one expansion's working memory over a computer: the
// best queued score and state per dense concept (only the touched
// entries are reset between runs), the queue, and the output buffers.
type expander struct {
	best    []float64
	state   []uint8
	touched []int32
	heap    denseHeap
	idx     []int32
	score   []float64
}

func (c *Computer) newExpander() any {
	n := c.graph.Len()
	return &expander{best: make([]float64, n), state: make([]uint8, n)}
}

// expand runs the merged best-first expansion of one flow table from
// the seeds (dense index and score), pruning below threshold, and
// returns the final score of every reached concept (seeds included),
// in exact-size slices the caller owns.
func (c *Computer) expand(fl *flow, seeds []denseItem, threshold float64) Dense {
	x := c.expanders.Get().(*expander)
	defer c.expanders.Put(x)
	for _, s := range seeds {
		if s.score >= threshold {
			x.relax(s.idx, s.score)
		}
	}
	for len(x.heap) > 0 {
		it := x.heap.pop()
		if x.state[it.idx] == settled {
			continue // a stale, lower entry of a finalized concept
		}
		x.state[it.idx] = settled
		x.idx = append(x.idx, it.idx)
		x.score = append(x.score, it.score)
		for k := fl.start[it.idx]; k < fl.start[it.idx+1]; k++ {
			if s := it.score * fl.factor[k]; s >= threshold {
				x.relax(fl.to[k], s)
			}
		}
	}
	out := Dense{Idx: make([]int32, len(x.idx)), Score: make([]float64, len(x.score))}
	copy(out.Idx, x.idx)
	copy(out.Score, x.score)
	for _, i := range x.touched {
		x.state[i] = unreached
	}
	x.touched, x.idx, x.score = x.touched[:0], x.idx[:0], x.score[:0]
	return out
}

// relax queues concept i at score s when s strictly improves its
// pending score (or it is unreached); settled concepts are final.
func (x *expander) relax(i int32, s float64) {
	switch x.state[i] {
	case settled:
		return
	case pending:
		if s <= x.best[i] {
			return
		}
	default:
		x.touched = append(x.touched, i)
		x.state[i] = pending
	}
	x.best[i] = s
	x.heap.push(denseItem{idx: i, score: s})
}

type denseItem struct {
	score float64
	idx   int32
}

// denseHeap is a max-heap on score with a deterministic dense-index
// (hence ConceptID) tie-break, kept by hand rather than through
// container/heap so pushes and pops neither box items nor go through
// an interface.
type denseHeap []denseItem

func (h denseHeap) less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score > h[j].score
	}
	return h[i].idx < h[j].idx
}

func (h *denseHeap) push(it denseItem) {
	*h = append(*h, it)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *denseHeap) pop() denseItem {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		m, l, r := i, 2*i+1, 2*i+2
		if l < n && s.less(l, m) {
			m = l
		}
		if r < n && s.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return top
}

// expandNaive runs one expansion per seed independently and merges the
// results with max. It computes the same scores as expand over all
// seeds but revisits shared regions of the graph once per seed — the
// inefficiency Observation 1 eliminates. Exposed for the ablation
// benchmark.
func (c *Computer) expandNaive(fl *flow, seeds []denseItem, threshold float64) Scores {
	out := make(Scores)
	for _, s := range seeds {
		single := c.expand(fl, []denseItem{s}, threshold)
		for i, v := range single.Score {
			id := c.graph.ID(int(single.Idx[i]))
			if v > out[id] {
				out[id] = v
			}
		}
	}
	return out
}
