package delta

import (
	"fmt"
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
