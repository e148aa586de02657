package dil

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/ir"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
	"repro/internal/xmltree"
)

type constCalibrator float64

func (c constCalibrator) KeywordNorm(string) float64 { return float64(c) }

// sharedBuilders builds the four strategies over one stage.
func sharedBuilders(t *testing.T) (map[ontoscore.Strategy]*Builder, Params) {
	t.Helper()
	corpus, ont := bigCorpus(t)
	params := DefaultParams()
	return NewBuilders(corpus, ontoscore.NewSide(ontology.MustCollection(ont), params.Onto), ontoscore.Strategies(), params), params
}

// Builders from NewBuilders share the full-text stage and nothing a
// deployment installs afterwards: while one builder gets a statistics
// overlay and a calibrator, the other three — answering cold keywords concurrently, so the race detector
// sees any write that reaches shared state — keep their statistics and
// their posting lists.
func TestSharedStageOverlaysArePerBuilder(t *testing.T) {
	builders, _ := sharedBuilders(t)
	vocab := builders[ontoscore.StrategyNone].Vocabulary(1)
	if len(vocab) > 60 {
		vocab = vocab[:60]
	}
	type picture struct {
		n, df int
		avg   float64
		calib Calibrator
		lists map[string]List
	}
	snapshot := func(b *Builder) picture {
		p := picture{n: b.textIx.N(), df: b.textIx.DF(vocab[0]), avg: b.textIx.AvgDocLen(), calib: b.Calibrator(), lists: map[string]List{}}
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
	wg.Wait()

	for st, want := range before {
		if st == mutated {
			continue
		}
		if got := after[st]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s moved when %s was reconfigured: N %d→%d DF %d→%d avgdl %v→%v calibrator %v→%v, lists equal: %v",
				st, mutated, want.n, got.n, want.df, got.df, want.avg, got.avg, want.calib, got.calib,
				reflect.DeepEqual(got.lists, want.lists))
		}
	}
	got := snapshot(m)
	if got.n == before[mutated].n || got.calib == nil || reflect.DeepEqual(got.lists, before[mutated].lists) {
		t.Errorf("%s did not take its own overlays: N=%d calibrator=%v", mutated, got.n, got.calib)
	}
}

// Every builder over a shared stage scores exactly like a builder that
// ran the stage for itself.
func TestSharedStageMatchesPrivateStage(t *testing.T) {
	builders, params := sharedBuilders(t)
	for st, shared := range builders {
		private := NewMultiBuilder(shared.corpus, shared.Collection(), st, params)
		if private.stage == shared.stage {
			t.Fatalf("%s: a private builder reads the shared stage", st)
		}
		for _, kw := range shared.Vocabulary(1) {
			if a, b := shared.BuildKeyword(kw), private.BuildKeyword(kw); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s %q: shared-stage list differs from private-stage list", st, kw)
			}
		}
	}
}

// The concept-reference table lists, for every concept slot, the keys
// of the elements whose code names that concept, in key order — on a
// base stage and on a delta-shaped stage (documents numbered above the
// base's, over the same ontology side) alike.
func TestConceptRefsCSR(t *testing.T) {
	corpus, coll := referenceCorpus(t, 60, 40)
	side := ontoscore.NewSide(coll, DefaultParams().Onto)
	docs := corpus.Docs()
	delta := xmltree.NewCorpus()
	for _, d := range docs[len(docs)/2:] {
		delta.AddExisting(d)
	}
	for name, c := range map[string]*xmltree.Corpus{"base": corpus, "delta": delta} {
		t.Run(name, func(t *testing.T) {
			b := NewBuilders(c, side, []ontoscore.Strategy{ontoscore.StrategyGraph}, DefaultParams())[ontoscore.StrategyGraph]
			slots := 0
			for _, comp := range side.Computers() {
				slots += comp.Concepts()
			}
			want := make([][]int32, slots)
			refs := 0
			for key, id := range b.ids {
				if slot := b.conceptSlot(c.NodeAt(id)); slot >= 0 {
					want[slot] = append(want[slot], int32(key))
					refs++
				}
			}
			if refs == 0 {
				t.Fatal("no element references a concept; the test checks nothing")
			}
			if len(b.refStart) != slots+1 || len(b.refKeys) != refs {
				t.Fatalf("table spans %d slots and %d keys, want %d and %d", len(b.refStart)-1, len(b.refKeys), slots, refs)
			}
			for slot := range want {
				if got := b.refsOf(slot); !slices.Equal(got, want[slot]) {
					t.Fatalf("slot %d lists %v, want %v", slot, got, want[slot])
				}
			}
		})
	}
}
