package ontoscore

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/ontology"
)

func (m *memo) sizes() (seen, stored, bytes int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.seen), len(m.stored), m.bytes
}

// The side's memo admits a key on its second request, returns what a
// propagation returns, stays inside its byte budget and key cap, is
// per side, and is safe under concurrent use.
func TestSideMemo(t *testing.T) {
	ont := generated(t, 17, 300)
	coll := ontology.MustCollection(ont)
	ctx := context.Background()
	keywords := []string{"asthma", "structure", "cardiac", "chronic", "aspirin", `"bronchial structure"`, "zzznothing"}
	strategies := []Strategy{StrategyGraph, StrategyTaxonomy, StrategyRelationships}

	t.Run("admission", func(t *testing.T) {
		s := NewSide(coll, DefaultParams())
		c := s.Computers()[0]
		wantStored := 0
		for _, st := range strategies {
			for _, kw := range keywords {
				first, hit := s.Scores(ctx, 0, st, kw)
				if _, stored, _ := s.memo.sizes(); hit || stored != wantStored {
					t.Fatalf("%v %q: first request hit=%v, stored %d results, want %d", st, kw, hit, stored, wantStored)
				}
				second, hit := s.Scores(ctx, 0, st, kw)
				wantStored++
				if _, stored, _ := s.memo.sizes(); hit || stored != wantStored {
					t.Fatalf("%v %q: second request hit=%v, stored %d results, want %d", st, kw, hit, stored, wantStored)
				}
				third, hit := s.Scores(ctx, 0, st, kw)
				if !hit {
					t.Fatalf("%v %q: third request missed", st, kw)
				}
				want := c.propagate(st, kw)
				for i, d := range []Dense{first, second, third} {
					if !reflect.DeepEqual(d, want) {
						t.Fatalf("%v %q request %d: memo result differs from a propagation", st, kw, i+1)
					}
				}
				if !reflect.DeepEqual(c.scoresOf(third), referenceCompute(c, st, kw)) {
					t.Fatalf("%v %q: memo hit differs from the reference expansion", st, kw)
				}
			}
		}
		seen, stored, _ := s.memo.sizes()
		if want := len(strategies) * len(keywords); stored != want || seen != 0 {
			t.Fatalf("stored %d, seen %d; want %d stored, 0 seen", stored, seen, want)
		}
		if d, _ := s.Scores(ctx, 0, StrategyNone, "asthma"); d.Len() != 0 {
			t.Fatal("XRANK has OntoScores")
		}
		if seen2, stored2, _ := s.memo.sizes(); seen2 != seen || stored2 != stored {
			t.Fatal("XRANK request touched the memo")
		}

		// A new side — the next generation's — starts empty.
		fresh := NewSide(coll, DefaultParams())
		if seen, stored, bytes := fresh.memo.sizes(); seen+stored+bytes != 0 {
			t.Fatalf("new side memo not empty: %d seen, %d stored, %d bytes", seen, stored, bytes)
		}
		if _, hit := fresh.Scores(ctx, 0, StrategyGraph, "asthma"); hit {
			t.Fatal("new side hit on its first request")
		}
	})

	t.Run("budget", func(t *testing.T) {
		s := NewSide(coll, DefaultParams())
		one, _ := s.Scores(ctx, 0, StrategyGraph, "structure")
		s.memo.budget = 12*one.Len() + len("structure") + memoEntryBytes + 100
		for i := 0; i < 2; i++ {
			for _, kw := range keywords {
				s.Scores(ctx, 0, StrategyGraph, kw)
			}
		}
		_, stored, bytes := s.memo.sizes()
		if bytes > s.memo.budget {
			t.Fatalf("memo holds %d bytes over a %d budget", bytes, s.memo.budget)
		}
		if stored == 0 || stored == len(keywords) {
			t.Fatalf("stored %d of %d keywords under a one-result budget", stored, len(keywords))
		}
		// Over budget, requests still answer, by propagation.
		for _, kw := range keywords {
			if d, _ := s.Scores(ctx, 0, StrategyGraph, kw); !reflect.DeepEqual(d, s.Computers()[0].propagate(StrategyGraph, kw)) {
				t.Fatalf("%q: answer differs over budget", kw)
			}
		}
	})

	t.Run("key cap", func(t *testing.T) {
		s := NewSide(coll, DefaultParams())
		s.memo.keys = 8
		for i := 0; i < 50; i++ {
			s.Scores(ctx, 0, StrategyTaxonomy, fmt.Sprintf("absent%d", i))
			if seen, _, _ := s.memo.sizes(); seen > s.memo.keys {
				t.Fatalf("%d keys recorded over a cap of %d", seen, s.memo.keys)
			}
		}
		// The record restarts rather than freezing: a fresh pair of
		// requests is still admitted.
		s.Scores(ctx, 0, StrategyTaxonomy, "asthma")
		s.Scores(ctx, 0, StrategyTaxonomy, "asthma")
		if _, hit := s.Scores(ctx, 0, StrategyTaxonomy, "asthma"); !hit {
			t.Fatal("no admission after the key record filled")
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		s := NewSide(coll, DefaultParams())
		c := s.Computers()[0]
		want := map[string]Dense{}
		for _, st := range strategies {
			for _, kw := range keywords {
				want[st.String()+kw] = c.propagate(st, kw)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for round := 0; round < 4; round++ {
					for i, st := range strategies {
						kw := keywords[(g+i+round)%len(keywords)]
						if d, _ := s.Scores(ctx, 0, st, kw); !reflect.DeepEqual(d, want[st.String()+kw]) {
							t.Errorf("goroutine %d: %v %q differs", g, st, kw)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
	})
}
