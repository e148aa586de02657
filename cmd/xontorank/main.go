// Command xontorank is the command-line interface to the XOntoRank
// system: generate a synthetic EMR corpus and ontology, build XOnto-DIL
// indexes into memory-mapped arena files, and run ontology-aware
// keyword searches.
//
// Usage:
//
//	xontorank gen    -out data -docs 200 -concepts 2000 -seed 1
//	xontorank index  -data data -strategy Relationships -arena-dir data/arena
//	xontorank search -data data -strategy Relationships -q '"bronchial structure" theophylline' -k 5
//	xontorank stats  -data data
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/arena"
	"repro/internal/cda"
	"repro/internal/core"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
	"repro/internal/xmltree"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "index":
		err = cmdIndex(os.Args[2:])
	case "search":
		err = cmdSearch(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xontorank:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: xontorank <gen|index|search|stats|verify> [flags]
  gen     generate a synthetic ontology and CDA corpus into a directory
  index   build the XOnto-DIL index for a strategy and write it as a
          memory-mapped single-file arena (xontoserve -mmap-index serves
          it; "index verify <file.xarn>" checks an arena end to end)
  search  run a keyword query (quote phrases inside the query string)
  stats   print corpus and ontology statistics
  verify  check corpus/ontology referential integrity`)
}

const ontologyFile = "ontology.json"

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	out := fs.String("out", "data", "output directory")
	docs := fs.Int("docs", 200, "number of patient records")
	concepts := fs.Int("concepts", 2000, "synthetic concepts beyond the curated cores")
	seed := fs.Int64("seed", 1, "generation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(*out, "docs"), 0o755); err != nil {
		return err
	}
	ont, err := ontology.Generate(ontology.GenConfig{
		Seed: *seed, ExtraConcepts: *concepts, SynonymProb: 0.4,
		MultiParentProb: 0.15, RelationshipsPerDisorder: 2,
	})
	if err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(*out, ontologyFile))
	if err != nil {
		return err
	}
	if err := ont.Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	gen, err := cda.NewGenerator(cda.GenConfig{
		Seed: *seed, NumDocuments: *docs, ProblemsPerPatient: 4,
		MedicationsPerPatient: 4, ProceduresPerPatient: 2,
	}, ont)
	if err != nil {
		return err
	}
	corpus := gen.GenerateCorpus()
	fig1, err := cda.GenerateFigure1(ont)
	if err != nil {
		return err
	}
	corpus.Add(fig1)
	for _, doc := range corpus.Docs() {
		path := filepath.Join(*out, "docs", doc.Name+".xml")
		df, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := xmltree.WriteXML(df, doc.Root); err != nil {
			df.Close()
			return err
		}
		if err := df.Close(); err != nil {
			return err
		}
	}
	st := corpus.Stats()
	fmt.Printf("generated %s: %d concepts, %d relationships; %s\n",
		*out, ont.Len(), ont.NumRelationships(), st)
	return nil
}

func loadData(dir string) (*xmltree.Corpus, *ontology.Ontology, error) {
	f, err := os.Open(filepath.Join(dir, ontologyFile))
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	ont, err := ontology.Load(f)
	if err != nil {
		return nil, nil, err
	}
	corpus, report, err := xmltree.LoadDir(filepath.Join(dir, "docs"))
	if err != nil {
		return nil, nil, err
	}
	for _, fe := range report.Skipped {
		fmt.Fprintf(os.Stderr, "warning: skipped %s\n", fe)
	}
	return corpus, ont, nil
}

func newSystem(dir, strategy string) (*core.System, error) {
	corpus, ont, err := loadData(dir)
	if err != nil {
		return nil, err
	}
	s, err := ontoscore.ParseStrategy(strategy)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Strategy = s
	return core.New(corpus, ont, cfg), nil
}

func cmdIndex(args []string) error {
	// `index verify <file>` inspects an arena file instead of building.
	if len(args) > 0 && args[0] == "verify" {
		return cmdIndexVerify(args[1:])
	}
	fs := flag.NewFlagSet("index", flag.ExitOnError)
	data := fs.String("data", "data", "data directory written by gen")
	strategy := fs.String("strategy", "Relationships", "XRANK|Graph|Taxonomy|Relationships")
	arenaDir := fs.String("arena-dir", "", "arena output directory; the file is <arena-dir>/<Strategy>.xarn (default <data>/arena)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *arenaDir == "" {
		*arenaDir = filepath.Join(*data, "arena")
	}
	sys, err := newSystem(*data, *strategy)
	if err != nil {
		return err
	}
	stats, err := sys.BuildIndex()
	if err != nil {
		return err
	}
	fmt.Printf("indexed %d keywords, %d postings, %.1f KB (full-text %v, ontoscore %v, dil %v)\n",
		stats.Keywords, stats.TotalPostings, float64(stats.TotalBytes)/1024,
		stats.FullTextTime, stats.OntoScoreTime, stats.DILTime)
	path := arena.FileFor(*arenaDir, sys.Config().Strategy.String())
	if err := os.MkdirAll(*arenaDir, 0o755); err != nil {
		return err
	}
	if err := sys.WriteArena(path, 1, core.CorpusFingerprint(sys.Corpus())); err != nil {
		return err
	}
	a, err := arena.Open(path, sys.Builder().IDs())
	if err != nil {
		return fmt.Errorf("arena written but does not open: %w", err)
	}
	fmt.Printf("arena %s: %d keywords, %d postings, %d bytes\n",
		path, a.Len(), a.Postings(), a.MappedBytes())
	return a.Close()
}

// cmdIndexVerify checks an arena file end to end — superblock magic,
// version, and CRC, offset-table ordering, and every segment's CRC and
// structure — printing per-keyword statistics and a summary. A corrupt
// file exits non-zero naming the first failure.
func cmdIndexVerify(args []string) error {
	fs := flag.NewFlagSet("index verify", flag.ExitOnError)
	quiet := fs.Bool("q", false, "print only the summary line")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: xontorank index verify [-q] <file.xarn>")
	}
	path := fs.Arg(0)
	each := func(ks arena.KeywordStat) {
		if !*quiet {
			fmt.Printf("%-32s postings=%-8d blocks=%-5d bytes=%d\n",
				ks.Keyword, ks.Postings, ks.Blocks, ks.Bytes)
		}
	}
	rep, err := arena.Verify(path, each)
	if err != nil {
		return fmt.Errorf("verify %s: %w", path, err)
	}
	h := rep.Header
	fmt.Printf("%s: OK\n", path)
	fmt.Printf("  format v%d, written %s, generation %d\n", h.Version, h.Created.Format("2006-01-02 15:04:05"), h.Generation)
	fmt.Printf("  fingerprints: corpus=%#x global=%#x config=%#x\n", h.CorpusFP, h.GlobalFP, h.ConfigFP)
	fmt.Printf("  %d keywords, %d postings, %d blocks, %d segment bytes (file %d bytes)\n",
		rep.Keywords, rep.TotalPostings, rep.TotalBlocks, rep.TotalBytes, h.FileLen)
	return nil
}

func cmdSearch(args []string) error {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	data := fs.String("data", "data", "data directory written by gen")
	strategy := fs.String("strategy", "Relationships", "XRANK|Graph|Taxonomy|Relationships")
	q := fs.String("q", "", "keyword query; quote phrases with double quotes")
	k := fs.Int("k", 5, "number of results (0 uses the configured default; capped at 1000)")
	offset := fs.Int("offset", 0, "ranked results to skip before the k returned ones")
	frag := fs.Bool("fragments", false, "print result XML fragments")
	trace := fs.Bool("trace", false, "print the request's span tree with per-stage durations")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *q == "" {
		return fmt.Errorf("search: -q is required")
	}
	if *k < 0 {
		return fmt.Errorf("search: -k must not be negative")
	}
	if *offset < 0 {
		return fmt.Errorf("search: -offset must not be negative")
	}
	sys, err := newSystem(*data, *strategy)
	if err != nil {
		return err
	}
	resp, err := sys.Query(context.Background(), core.SearchRequest{
		Query:    *q,
		K:        *k,
		Offset:   *offset,
		Strategy: *strategy,
		Trace:    *trace,
	})
	if err != nil {
		return err
	}
	if len(resp.Results) == 0 {
		fmt.Println("no results")
	}
	for i, r := range resp.Results {
		fmt.Printf("%2d. score=%.4f doc=%s element=%s\n", i+1, r.Score, r.Document, r.Path)
		for _, m := range r.Matches {
			fmt.Printf("      %-28q via %s (ns=%.4f)\n", m.Keyword, m.Path, m.Score)
		}
		if *frag {
			fmt.Println(sys.Fragment(r))
		}
	}
	if *trace && resp.Trace != nil {
		out, err := json.MarshalIndent(resp.Trace, "", "  ")
		if err != nil {
			return err
		}
		fmt.Printf("trace %s (total %dus, search %dus, hydrate %dus):\n%s\n",
			resp.TraceID, resp.Timing.TotalUS, resp.Timing.SearchUS, resp.Timing.HydrateUS, out)
	}
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	data := fs.String("data", "data", "data directory written by gen")
	if err := fs.Parse(args); err != nil {
		return err
	}
	corpus, ont, err := loadData(*data)
	if err != nil {
		return err
	}
	fmt.Printf("corpus:   %s\n", corpus.Stats())
	fmt.Printf("ontology: %q %d concepts, %d relationships, %d relationship types\n",
		ont.Name, ont.Len(), ont.NumRelationships(), len(ont.RelTypes()))
	return nil
}
