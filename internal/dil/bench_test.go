package dil

import (
	"sort"
	"testing"

	"repro/internal/cda"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
)

// BenchmarkBuildKeyword times one cold XOnto-DIL build — the Table III
// path every keyword-cache miss pays on the request path — over the
// benchmark generator's 800 documents and 5 000 extra concepts. One op
// is one BuildKeyword of the next (strategy, keyword) pair of a sweep
// over every corpus and ontology token (len >= 3) × the four
// strategies, the shape of the `cold` workload. Builders keep no list
// cache, so every op is a full build.
func BenchmarkBuildKeyword(b *testing.B) {
	ont, err := ontology.Generate(ontology.GenConfig{
		Seed: 1, ExtraConcepts: 5000, SynonymProb: 0.4,
		MultiParentProb: 0.15, RelationshipsPerDisorder: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	gen, err := cda.NewGenerator(cda.GenConfig{
		Seed: 1, NumDocuments: 800, ProblemsPerPatient: 4,
		MedicationsPerPatient: 4, ProceduresPerPatient: 2,
	}, ont)
	if err != nil {
		b.Fatal(err)
	}
	coll := ontology.MustCollection(ont, ontology.LOINCFragment())
	builders := NewBuilders(gen.GenerateCorpus(), ontoscore.NewSide(coll, DefaultParams().Onto), ontoscore.Strategies(), DefaultParams())
	set := map[string]bool{}
	for _, kw := range builders[ontoscore.StrategyNone].Vocabulary(0) {
		set[kw] = true
	}
	for _, kw := range coll.Vocabulary() {
		set[kw] = true
	}
	var sweep []string
	for kw := range set {
		if len(kw) >= 3 {
			sweep = append(sweep, kw)
		}
	}
	sort.Strings(sweep)
	strategies := ontoscore.Strategies()
	postings := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kw := sweep[(i/len(strategies))%len(sweep)]
		postings += len(builders[strategies[i%len(strategies)]].BuildKeyword(kw))
	}
	b.ReportMetric(float64(postings)/float64(b.N), "postings/op")
}
