// Persistent index: build the XOnto-DILs once, write them into a
// single-file arena, then serve a fresh system zero-copy from the
// memory-mapped file — nothing is rebuilt. This is the path
// `xontorank index` writes and `xontoserve -mmap-index` serves.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	xontorank "repro"
	"repro/internal/arena"
	"repro/internal/cda"
	"repro/internal/core"
)

func main() {
	dir, err := os.MkdirTemp("", "xontorank-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// ---- Phase 1: generate, index, write the arena. ----
	ontCfg := xontorank.DefaultOntologyConfig()
	ontCfg.ExtraConcepts = 300
	ont, err := xontorank.GenerateOntology(ontCfg)
	if err != nil {
		log.Fatal(err)
	}
	corpCfg := xontorank.DefaultCorpusConfig()
	corpCfg.NumDocuments = 30
	corpus, err := xontorank.GenerateCorpus(corpCfg, ont)
	if err != nil {
		log.Fatal(err)
	}
	fig1, err := xontorank.GenerateFigureOne(ont)
	if err != nil {
		log.Fatal(err)
	}
	corpus.Add(fig1)

	sys := xontorank.New(corpus, ont, xontorank.DefaultConfig())
	stats, err := sys.BuildIndex()
	if err != nil {
		log.Fatal(err)
	}
	path := arena.FileFor(dir, sys.Config().Strategy.String())
	fp := core.CorpusFingerprint(corpus)
	if err := sys.WriteArena(path, 1, fp); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 1: indexed %d keywords / %d postings into %s\n",
		stats.Keywords, stats.TotalPostings, path)

	// ---- Phase 2: a fresh system attaches the arena and serves. ----
	served := xontorank.New(corpus, ont, xontorank.DefaultConfig())
	a, err := arena.Open(path, served.Builder().IDs())
	if err != nil {
		log.Fatal(err)
	}
	defer a.Close()
	if err := served.ArenaCompatible(a, fp); err != nil {
		log.Fatal(err)
	}
	served.UseArena(a)
	fmt.Printf("phase 2: mapped %d keywords, %d bytes\n", a.Len(), a.MappedBytes())

	const q = `"bronchial structure" theophylline`
	results := search(served, q, 3)
	fmt.Printf("query %s -> %d results\n", q, len(results))
	for i, r := range results {
		doc := corpus.Doc(r.Root.DocID())
		fmt.Printf("%d. score=%.4f doc=%s — %s\n", i+1, r.Score, r.Document, cda.Summary(doc))
		if i == 0 {
			fmt.Println("   fragment:")
			fmt.Println("   " + served.Fragment(r))
		}
	}
}

// search runs one query through the system's sole search entry point.
func search(sys *xontorank.System, q string, k int) []xontorank.Result {
	resp, err := sys.Query(context.Background(), xontorank.SearchRequest{Query: q, K: k})
	if err != nil {
		log.Fatal(err)
	}
	return resp.Results
}
