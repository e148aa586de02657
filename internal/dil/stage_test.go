package dil

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/elemrank"
	"repro/internal/ir"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
)

type constCalibrator float64

func (c constCalibrator) KeywordNorm(string) float64 { return float64(c) }

// sharedBuilders builds the four strategies over one stage, with
// ElemRank on so that SetRanksMax has something to move.
func sharedBuilders(t *testing.T) (map[ontoscore.Strategy]*Builder, Params) {
	t.Helper()
	corpus, ont := bigCorpus(t)
	params := DefaultParams()
	er := elemrank.DefaultParams()
	params.ElemRank = &er
	return NewBuilders(corpus, ontology.MustCollection(ont), ontoscore.Strategies(), params), params
}

// Builders from NewBuilders share the full-text stage and nothing a
// deployment installs afterwards: while one builder gets a statistics
// overlay, a calibrator and a global ElemRank normalizer, the other
// three — answering cold keywords concurrently, so the race detector
// sees any write that reaches shared state — keep their statistics and
// their posting lists.
func TestSharedStageOverlaysArePerBuilder(t *testing.T) {
	builders, _ := sharedBuilders(t)
	vocab := builders[ontoscore.StrategyNone].Vocabulary(1)
	if len(vocab) > 60 {
		vocab = vocab[:60]
	}
	type picture struct {
		n, df    int
		avg, max float64
		lists    map[string]List
	}
	snapshot := func(b *Builder) picture {
		p := picture{n: b.textIx.N(), df: b.textIx.DF(vocab[0]), avg: b.textIx.AvgDocLen(), max: b.RanksMax(), lists: map[string]List{}}
		for _, kw := range vocab {
			p.lists[kw] = b.BuildKeyword(kw)
		}
		return p
	}
	before := map[ontoscore.Strategy]picture{}
	for st, b := range builders {
		before[st] = snapshot(b)
	}

	const mutated = ontoscore.StrategyGraph
	after := map[ontoscore.Strategy]picture{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for st, b := range builders {
		if st == mutated {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := snapshot(b)
			mu.Lock()
			after[st] = p
			mu.Unlock()
		}()
	}
	m := builders[mutated]
	m.SetGlobalTextStats(ir.Stats{N: 10 * before[mutated].n, TotalLen: 7, DF: map[string]int{vocab[0]: 1}})
	m.SetCalibrator(constCalibrator(1000))
	m.SetRanksMax(50 * before[mutated].max)
	wg.Wait()

	for st, want := range before {
		if st == mutated {
			continue
		}
		if got := after[st]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s moved when %s was reconfigured: N %d→%d DF %d→%d avgdl %v→%v ranksMax %v→%v, lists equal: %v",
				st, mutated, want.n, got.n, want.df, got.df, want.avg, got.avg, want.max, got.max,
				reflect.DeepEqual(got.lists, want.lists))
		}
	}
	got := snapshot(m)
	if got.n == before[mutated].n || got.max == before[mutated].max || reflect.DeepEqual(got.lists, before[mutated].lists) {
		t.Errorf("%s did not take its own overlays: N=%d ranksMax=%v", mutated, got.n, got.max)
	}
}

// Every builder over a shared stage scores exactly like a builder that
// ran the stage for itself.
func TestSharedStageMatchesPrivateStage(t *testing.T) {
	builders, params := sharedBuilders(t)
	for st, shared := range builders {
		private := NewMultiBuilder(shared.corpus, shared.coll, st, params)
		if private.stage == shared.stage || private.shared || !shared.shared {
			t.Fatalf("%s: stage sharing flags are wrong", st)
		}
		for _, kw := range shared.Vocabulary(1) {
			if a, b := shared.BuildKeyword(kw), private.BuildKeyword(kw); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s %q: shared-stage list differs from private-stage list", st, kw)
			}
		}
	}
}
