package ontoscore

import (
	"runtime"
	"sort"
	"sync"

	"repro/internal/ontology"
)

// Map is the OntoScore hash map of Algorithm 1: for a fixed strategy it
// stores OS(O, w, c) for every (keyword w, concept c) pair whose score
// meets the threshold, over the computer's dense concept numbering. It
// is the intermediate product of the index creation module, consumed
// when the XOnto-DILs are assembled.
type Map struct {
	strategy Strategy
	c        *Computer
	scores   map[string]Dense
}

// BuildMap evaluates the strategy over every keyword of the vocabulary.
// Keywords are evaluated concurrently (the computer is read-only after
// construction); the result is deterministic.
func BuildMap(c *Computer, s Strategy, vocabulary []string) *Map {
	m := &Map{strategy: s, c: c, scores: make(map[string]Dense, len(vocabulary))}
	if s == StrategyNone {
		return m
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(vocabulary) {
		workers = len(vocabulary)
	}
	if workers < 1 {
		workers = 1
	}
	type result struct {
		kw     string
		scores Dense
	}
	in := make(chan string)
	out := make(chan result)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for kw := range in {
				out <- result{kw: kw, scores: c.propagate(s, kw)}
			}
		}()
	}
	go func() {
		for _, kw := range vocabulary {
			in <- kw
		}
		close(in)
		wg.Wait()
		close(out)
	}()
	for r := range out {
		if r.scores.Len() > 0 {
			m.scores[r.kw] = r.scores
		}
	}
	return m
}

// Strategy returns the strategy the map was built with.
func (m *Map) Strategy() Strategy { return m.strategy }

// Get returns OS(O, keyword, concept) and whether it is recorded.
func (m *Map) Get(keyword string, id ontology.ConceptID) (float64, bool) {
	d, ok := m.c.Dense(id)
	if !ok {
		return 0, false
	}
	scores := m.scores[keyword]
	for i, idx := range scores.Idx {
		if int(idx) == d {
			return scores.Score[i], true
		}
	}
	return 0, false
}

// Dense returns the recorded concept scores of the keyword over the
// computer's dense numbering. The slices are shared; callers must not
// modify them.
func (m *Map) Dense(keyword string) Dense { return m.scores[keyword] }

// ScoresFor returns every recorded concept score for the keyword, keyed
// by concept (a fresh map; nil when none is recorded).
func (m *Map) ScoresFor(keyword string) Scores { return m.c.scoresOf(m.scores[keyword]) }

// Keywords returns the keywords with at least one recorded score,
// sorted.
func (m *Map) Keywords() []string {
	out := make([]string, 0, len(m.scores))
	for kw := range m.scores {
		out = append(out, kw)
	}
	sort.Strings(out)
	return out
}

// Entries counts the recorded (keyword, concept) pairs.
func (m *Map) Entries() int {
	n := 0
	for _, s := range m.scores {
		n += s.Len()
	}
	return n
}
