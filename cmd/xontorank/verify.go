package main

import (
	"flag"
	"fmt"

	"repro/internal/cda"
	"repro/internal/ontology"
	"repro/internal/xmltree"
)

// cmdVerify checks the referential integrity of a data directory:
// structural CDA validity, ontological references resolving against
// the ontology collection, intra-document ID-IDREF references, and the
// ontology's is-a acyclicity. It reports every problem and fails if
// any were found.
func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	data := fs.String("data", "data", "data directory written by gen")
	maxReport := fs.Int("max-report", 10, "maximum problems to print per category")
	if err := fs.Parse(args); err != nil {
		return err
	}
	corpus, ont, err := loadData(*data)
	if err != nil {
		return err
	}
	coll := ontology.MustCollection(ont, ontology.LOINCFragment())

	problems := 0
	report := func(category string, items []string) {
		if len(items) == 0 {
			fmt.Printf("ok    %s\n", category)
			return
		}
		problems += len(items)
		fmt.Printf("FAIL  %s: %d problem(s)\n", category, len(items))
		for i, it := range items {
			if i >= *maxReport {
				fmt.Printf("      ... %d more\n", len(items)-i)
				break
			}
			fmt.Printf("      %s\n", it)
		}
	}

	// Structural CDA validity.
	var invalid []string
	for _, doc := range corpus.Docs() {
		if err := cda.Validate(doc); err != nil {
			invalid = append(invalid, fmt.Sprintf("%s: %v", doc.Name, err))
		}
	}
	report("CDA structure", invalid)

	// Ontological references resolve in the collection.
	var dangling []string
	known, unknownSystem := 0, 0
	for _, doc := range corpus.Docs() {
		doc.Root.Walk(func(n *xmltree.Node) bool {
			ref, ok := n.OntoRef()
			if !ok {
				return true
			}
			if _, inColl := coll.System(ref.System); !inColl {
				unknownSystem++
				return true
			}
			if _, _, ok := coll.Resolve(ref.System, ref.Code); !ok {
				dangling = append(dangling, fmt.Sprintf("%s: %s at %s", doc.Name, ref, n.Path()))
			} else {
				known++
			}
			return true
		})
	}
	report("ontological references", dangling)

	// ID-IDREF references resolve within their documents.
	var danglingRefs []string
	for _, doc := range corpus.Docs() {
		anchors := map[string]bool{}
		doc.Root.Walk(func(n *xmltree.Node) bool {
			if v, ok := n.Attr("ID"); ok && v != "" {
				anchors[v] = true
			}
			return true
		})
		doc.Root.Walk(func(n *xmltree.Node) bool {
			if n.Tag != "reference" {
				return true
			}
			if v, ok := n.Attr("value"); ok && v != "" && !anchors[v] {
				danglingRefs = append(danglingRefs, fmt.Sprintf("%s: reference %q at %s", doc.Name, v, n.Path()))
			}
			return true
		})
	}
	report("ID-IDREF references", danglingRefs)

	// Ontology taxonomy.
	var taxProblems []string
	if err := ont.ValidateTaxonomy(); err != nil {
		taxProblems = append(taxProblems, err.Error())
	}
	report("ontology taxonomy (is-a DAG)", taxProblems)

	// Summary.
	edges := 0
	for _, doc := range corpus.Docs() {
		edges += len(cda.ExtractHyperlinks(doc))
	}
	fmt.Printf("\n%s; %d resolvable references, %d references to systems outside the collection, %d hyperlink edges\n",
		corpus.Stats(), known, unknownSystem, edges)
	if problems > 0 {
		return fmt.Errorf("verify: %d problem(s) found", problems)
	}
	fmt.Println("verify: all checks passed")
	return nil
}
