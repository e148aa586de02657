package ontoscore

import (
	"context"
	"sync"

	"repro/internal/ontology"
)

// Side is the ontology side of index creation for one collection: one
// Computer per ontological system, built once for given Params. In the
// paper OS(O, w, c) depends on the ontology, the strategy and the
// keyword, never on the corpus, so a side outlives any one corpus
// snapshot: a generation's full-text stage, every shard's stage and
// every delta-segment state over the same collection share it, and an
// acknowledged write builds no computer. For the same reason the side
// is where Algorithm 1's OntoScore hash map lives on the request path:
// Scores propagates each (system, strategy, keyword) and memoizes the
// results asked for more than once. The memo lives and dies with the
// side, so a reload or compaction, which builds a new side, starts it
// empty. A side is safe for concurrent use.
type Side struct {
	coll      *ontology.Collection
	params    Params
	computers []*Computer // collection order
	memo      memo
}

// NewSide freezes and indexes every ontology of the collection. It is
// the one place computers are built for serving.
func NewSide(coll *ontology.Collection, params Params) *Side {
	s := &Side{coll: coll, params: params, memo: memo{budget: memoBudget, keys: memoKeys}}
	for _, ont := range coll.Ontologies() {
		s.computers = append(s.computers, NewComputer(ont, params))
	}
	return s
}

// Collection returns the ontological-systems collection.
func (s *Side) Collection() *ontology.Collection { return s.coll }

// Params returns the OntoScore parameters the computers were built with.
func (s *Side) Params() Params { return s.params }

// Computers returns one computer per system, in collection order. The
// slice is shared; callers must not modify it.
func (s *Side) Computers() []*Computer { return s.computers }

// Computer returns the computer of one system (nil when the system is
// not in the collection).
func (s *Side) Computer(systemID string) *Computer {
	for _, c := range s.computers {
		if c.ont.SystemID == systemID {
			return c
		}
	}
	return nil
}

// The memo's fixed bounds. Neither is a setting: the budget caps what
// stored results can pin per side (a few hundred of the widest
// Relationships results), and the key cap bounds the admission record.
const (
	memoBudget = 32 << 20 // bytes of stored results
	memoKeys   = 1 << 16  // keys seen once and not yet stored
	// memoEntryBytes approximates a stored entry's overhead beyond its
	// 12 B per concept: key, map slot and slice headers.
	memoEntryBytes = 96
)

type memoKey struct {
	system   int
	strategy Strategy
	keyword  string
}

// memo holds propagated OntoScores with admission on the second
// request: the first propagation of a key only records the key, the
// second stores the result. A keyword asked for once — the common
// case, since built lists are cached by the query engine — costs the
// memo a key, not a result. When the key record fills it starts over;
// when the byte budget is spent nothing more is stored.
type memo struct {
	budget, keys int // memoBudget and memoKeys

	mu     sync.Mutex
	seen   map[memoKey]struct{}
	stored map[memoKey]Dense
	bytes  int
}

// Scores returns the OntoScores of one keyword under a strategy against
// system i of the side (collection order), over that computer's dense
// numbering. The hit return reports that the scores came from the memo
// rather than a propagation; only a propagation is recorded as an
// "ontoscore.propagate" span. The result is shared: callers must not
// modify it. StrategyNone has no ontology branch: its result is empty
// and neither propagated nor memoized.
func (s *Side) Scores(ctx context.Context, system int, st Strategy, keyword string) (d Dense, hit bool) {
	if st == StrategyNone {
		return Dense{}, false
	}
	k := memoKey{system: system, strategy: st, keyword: keyword}
	m := &s.memo
	m.mu.Lock()
	d, hit = m.stored[k]
	m.mu.Unlock()
	if hit {
		return d, true
	}
	d = s.computers[system].propagateCtx(ctx, st, keyword)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.stored[k]; ok {
		return d, false // stored by a concurrent request
	}
	if _, ok := m.seen[k]; !ok {
		if m.seen == nil || len(m.seen) >= m.keys {
			m.seen = make(map[memoKey]struct{})
		}
		m.seen[k] = struct{}{}
		return d, false
	}
	if cost := 12*d.Len() + len(keyword) + memoEntryBytes; m.bytes+cost <= m.budget {
		if m.stored == nil {
			m.stored = make(map[memoKey]Dense)
		}
		m.stored[k] = d
		m.bytes += cost
		delete(m.seen, k)
	}
	return d, false
}
