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

// transition is one outgoing flow step: the target concept and the
// multiplicative factor applied to the score.
type transition struct {
	to     ontology.ConceptID
	factor float64
}

// expandFn appends the transitions leaving a concept under a strategy
// to buf and returns it; the expansion reuses one buffer for every
// concept it settles.
type expandFn func(id ontology.ConceptID, buf []transition) []transition

type scoreItem struct {
	id    ontology.ConceptID
	score float64
}

// scoreHeap is a max-heap on score with a deterministic id tie-break,
// kept by hand rather than through container/heap so pushes and pops
// neither box items nor go through an interface.
type scoreHeap []scoreItem

func (h scoreHeap) less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score > h[j].score
	}
	return h[i].id < h[j].id
}

func (h *scoreHeap) push(it scoreItem) {
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

func (h *scoreHeap) pop() scoreItem {
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

// expand runs the merged best-first expansion from the seeds, pruning
// below threshold, and returns the final score of every reached concept
// (seeds included).
func expand(seeds Scores, threshold float64, next expandFn) Scores {
	out := make(Scores, len(seeds))
	h := make(scoreHeap, 0, len(seeds))
	for id, s := range seeds {
		if s >= threshold {
			h.push(scoreItem{id: id, score: s})
		}
	}
	var buf []transition
	for len(h) > 0 {
		it := h.pop()
		if _, done := out[it.id]; done {
			continue // already finalized at a >= score
		}
		out[it.id] = it.score
		buf = next(it.id, buf[:0])
		for _, tr := range buf {
			if tr.factor <= 0 {
				continue
			}
			s := it.score * tr.factor
			if s < threshold {
				continue
			}
			if _, done := out[tr.to]; done {
				continue
			}
			h.push(scoreItem{id: tr.to, score: s})
		}
	}
	return out
}

// expandNaive runs one best-first expansion per seed independently and
// merges the results with max. It computes the same scores as expand
// but revisits shared regions of the graph once per seed — the
// inefficiency Observation 1 eliminates. Exposed for the ablation
// benchmark and as a test oracle.
func expandNaive(seeds Scores, threshold float64, next expandFn) Scores {
	out := make(Scores)
	for id, s := range seeds {
		single := expand(Scores{id: s}, threshold, next)
		for c, v := range single {
			if v > out[c] {
				out[c] = v
			}
		}
	}
	return out
}
