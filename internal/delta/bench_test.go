package delta

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ontoscore"
)

// BenchmarkRebase replays 1, 8 and 32 pending documents onto a
// 150-document base with three strategies' delta builders — the reload
// and compaction path with the WAL still holding records.
func BenchmarkRebase(b *testing.B) {
	const baseN = 150
	fx := newFixture(b, baseN+31, 3)
	cfg := core.DefaultConfig()
	base := fx.baseCorpus(b, baseN)
	sys := core.NewMulti(base, fx.coll, cfg)
	strategies := []ontoscore.Strategy{ontoscore.StrategyGraph, ontoscore.StrategyTaxonomy, ontoscore.StrategyRelationships}
	for _, pending := range []int{1, 8, 32} {
		ops := make([]Op, pending)
		for i, name := range fx.names[baseN : baseN+pending] {
			ops[i] = Op{Seq: uint64(i + 1), Kind: OpPut, Name: name, Body: fx.bodies[name]}
		}
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			seg := wireSegment(sys, cfg.Strategy, Config{Strategies: strategies, DIL: cfg.DIL})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := seg.Rebase(base, sys.Builder().LocalTextStats(), sys.Builder().Side(), ops); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDirtyRead times one System.Query of two co-occurring terms
// under a dirty overlay — 1, 8 and 32 pending documents plus one base
// tombstone over BenchmarkRebase's 150-document base — the read every
// query pays between a write and the next compaction: each keyword is
// built pinned to the acquired state, base and delta in one pass, into
// an array the previous read recycled. With readers=2 two goroutines
// read the same state concurrently; a list built once for both is left
// to the collector.
func BenchmarkDirtyRead(b *testing.B) {
	const baseN = 150
	fx := newFixture(b, baseN+31, 3)
	cfg := core.DefaultConfig()
	req := core.SearchRequest{Query: "asthma medications", K: 10}
	for _, c := range []struct{ pending, readers int }{{1, 1}, {8, 1}, {32, 1}, {8, 2}} {
		name := fmt.Sprintf("pending=%d", c.pending)
		if c.readers > 1 {
			name += fmt.Sprintf(",readers=%d", c.readers)
		}
		b.Run(name, func(b *testing.B) {
			sys := core.NewMulti(fx.baseCorpus(b, baseN), fx.coll, cfg)
			seg := wireSegment(sys, cfg.Strategy, Config{Strategies: []ontoscore.Strategy{cfg.Strategy}, DIL: cfg.DIL})
			if err := seg.Apply(Op{Seq: 1, Kind: OpDelete, Name: fx.names[1]}); err != nil {
				b.Fatal(err)
			}
			for i, name := range fx.names[baseN : baseN+c.pending] {
				if err := seg.Apply(Op{Seq: uint64(i + 2), Kind: OpPut, Name: name, Body: fx.bodies[name]}); err != nil {
					b.Fatal(err)
				}
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for r := 0; r < c.readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := r; i < b.N; i += c.readers {
						if resp, err := sys.Query(ctx, req); err != nil || len(resp.Results) == 0 {
							b.Errorf("query: %+v, %v", resp, err)
							return
						}
					}
				}(r)
			}
			wg.Wait()
		})
	}
}

// BenchmarkApply times one acknowledged put — Segment.Apply, without
// the WAL — at 0, 32, 128 and 255 pending documents over
// BenchmarkRebase's base. Each op re-puts one name outside the pending
// set, so the pending count holds across iterations.
func BenchmarkApply(b *testing.B) {
	const baseN, maxPending = 150, 255
	fx := newFixture(b, baseN+maxPending, 3)
	cfg := core.DefaultConfig()
	base := fx.baseCorpus(b, baseN)
	sys := core.NewMulti(base, fx.coll, cfg)
	strategies := []ontoscore.Strategy{ontoscore.StrategyGraph, ontoscore.StrategyTaxonomy, ontoscore.StrategyRelationships}
	for _, pending := range []int{0, 32, 128, 255} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			seg := wireSegment(sys, cfg.Strategy, Config{Strategies: strategies, DIL: cfg.DIL})
			names := fx.names[baseN : baseN+pending+1]
			seq := uint64(0)
			put := func(name string) {
				seq++
				if err := seg.Apply(Op{Seq: seq, Kind: OpPut, Name: name, Body: fx.bodies[name]}); err != nil {
					b.Fatal(err)
				}
			}
			for _, name := range names {
				put(name)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				put(names[pending])
			}
		})
	}
}
