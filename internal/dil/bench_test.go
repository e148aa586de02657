package dil

import (
	"context"
	"sort"
	"testing"

	"repro/internal/cda"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
)

// BenchmarkBuildKeyword times one cold XOnto-DIL build — the Table III
// path every keyword-cache miss pays on the request path — over the
// benchmark generator's 800 documents and 5 000 extra concepts. One op
// is one build of the next (strategy, keyword) pair of a sweep over
// every corpus and ontology token (len >= 3) × the four strategies, the
// shape of the `cold` workload, encoded as the query engine caches it
// (CompactKeyword: build plus encode). Builders keep no list cache, so
// every op is a full build.
func BenchmarkBuildKeyword(b *testing.B) {
	builders, sweep := benchSweep(b)
	strategies := ontoscore.Strategies()
	postings := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kw := sweep[(i/len(strategies))%len(sweep)]
		c := builders[strategies[i%len(strategies)]].CompactKeyword(context.Background(), kw)
		postings += c.Len()
	}
	b.ReportMetric(float64(postings)/float64(b.N), "postings/op")
}

// BenchmarkCompact times the encoding alone — what a keyword-cache
// miss adds to its build — over the lists of the first 2 000 (strategy,
// keyword) pairs of BenchmarkBuildKeyword's sweep, built beforehand.
// One op encodes one list; ns/posting is the cost per posting.
func BenchmarkCompact(b *testing.B) {
	builders, sweep := benchSweep(b)
	strategies := ontoscore.Strategies()
	var lists []List
	for i := 0; len(lists) < 2000 && i < 4*len(sweep); i++ {
		if l := builders[strategies[i%len(strategies)]].BuildKeyword(sweep[i/len(strategies)]); len(l) > 0 {
			lists = append(lists, l)
		}
	}
	ids := builders[strategies[0]].IDs()
	postings := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := lists[i%len(lists)]
		compactSink = Compact(l, ids)
		postings += len(l)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(postings), "ns/posting")
}

// compactSink keeps BenchmarkCompact's result live.
var compactSink *CompactList

// benchSweep builds the benchmark corpus's builders, one per strategy
// over one stage, and the sorted sweep of every corpus and ontology
// token of at least three letters.
func benchSweep(b *testing.B) (map[ontoscore.Strategy]*Builder, []string) {
	b.Helper()
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
	return builders, sweep
}
