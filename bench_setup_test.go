package xontorank

import (
	"fmt"
	"testing"

	"repro/internal/cda"
	"repro/internal/core"
	"repro/internal/ontology"
	"repro/internal/server"
	"repro/internal/serving"
)

var benchServer *server.Server // keeps the measured call's result alive

// BenchmarkNewGeneration times what a restart or /admin/reload pays
// after ingest: server.NewServing over an in-memory corpus with the
// benchmark's generator settings (`xontorank gen`, 5 000 concepts) —
// one full-text stage and the four per-strategy systems over it. The
// three sizes show the growth: linear in documents means the 3 200-doc
// time is about 4x the 800-doc time (DESIGN.md §18; `make bench-smoke`
// runs it once per size).
func BenchmarkNewGeneration(b *testing.B) {
	ont, err := ontology.Generate(ontology.GenConfig{
		Seed: 1, ExtraConcepts: 5000, SynonymProb: 0.4,
		MultiParentProb: 0.15, RelationshipsPerDisorder: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	coll := ontology.MustCollection(ont, ontology.LOINCFragment())
	for _, docs := range []int{200, 800, 3200} {
		b.Run(fmt.Sprintf("docs=%d", docs), func(b *testing.B) {
			gen, err := cda.NewGenerator(cda.GenConfig{
				Seed: 1, NumDocuments: docs, ProblemsPerPatient: 4,
				MedicationsPerPatient: 4, ProceduresPerPatient: 2,
			}, ont)
			if err != nil {
				b.Fatal(err)
			}
			corpus := gen.GenerateCorpus()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchServer = server.NewServing(corpus, coll, core.DefaultConfig(), serving.DefaultConfig())
			}
		})
	}
}
