// Ontology explore: walk the SNOMED-CT-like concept graph, print its
// description-logic (EL) view, and compare the three OntoScore
// strategies for a keyword — the machinery of the paper's Section IV.
package main

import (
	"fmt"
	"log"
	"sort"

	xontorank "repro"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
)

func main() {
	ont := xontorank.FigureTwoFragment()

	// --- The concept graph around Asthma (the paper's Figure 2).
	asthma := ont.ByPreferred("Asthma")
	if asthma == nil {
		log.Fatal("Asthma missing")
	}
	fmt.Printf("concept %s (code %s), synonyms %v\n", asthma.Preferred, asthma.Code, asthma.Synonyms)
	fmt.Println("  superclasses:")
	for _, p := range ont.Superclasses(asthma.ID) {
		fmt.Printf("    is-a %s\n", ont.Concept(p).Preferred)
	}
	fmt.Println("  attribute relationships:")
	for _, e := range ont.Out(asthma.ID) {
		if e.Type == ontology.IsA {
			continue
		}
		fmt.Printf("    %s -> %s\n", e.Type, ont.Concept(e.To).Preferred)
	}
	fmt.Printf("  direct subclasses: %d\n\n", ont.NumSubclasses(asthma.ID))

	// --- The description-logic view (Section IV-C): every attribute
	// relationship becomes a subclass axiom over an existential role
	// restriction.
	view := ontology.NewELView(ont)
	fmt.Printf("EL view: %d existential role restrictions\n", len(view.Restrictions()))
	for _, ax := range view.Axioms() {
		fmt.Println("  " + ax)
	}
	fmt.Println()

	// --- The EL reasoner (the logic the DL view rests on): restrictions
	// are inherited down the subsumption hierarchy, so an Asthma attack
	// is entailed to be treated by Theophylline even though the graph
	// only records that edge on Asthma.
	reasoner := ontology.NewReasoner(ont)
	attack := ont.ByPreferred("Asthma attack")
	fmt.Printf("EL entailments for %s:\n", attack.Preferred)
	for _, role := range reasoner.EntailedRoles(attack.ID) {
		for _, filler := range reasoner.Fillers(attack.ID, role) {
			fmt.Printf("  ⊑ Exists %s.%s\n", role, ont.Concept(filler).Preferred)
		}
	}
	fmt.Println()

	// --- OntoScores of the keyword "bronchial structure" under the
	// three strategies (Section IV / VI). The keyword seeds the
	// Bronchial Structure concept; authority flows outward by
	// strategy-specific rules.
	computer := ontoscore.NewSide(ontology.MustCollection(ont), ontoscore.DefaultParams()).Computer(ont.SystemID)
	const keyword = "bronchial structure"
	fmt.Printf("OntoScores for keyword %q (decay=0.5, beta=0.5, threshold=0.1):\n", keyword)
	for _, s := range []ontoscore.Strategy{
		ontoscore.StrategyGraph, ontoscore.StrategyTaxonomy, ontoscore.StrategyRelationships,
	} {
		scores := computer.Compute(s, keyword)
		fmt.Printf("  %-14v %d concepts reached\n", s, len(scores))
		type row struct {
			name  string
			score float64
		}
		var rows []row
		for id, v := range scores {
			rows = append(rows, row{name: ont.Concept(id).Preferred, score: v})
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].score != rows[j].score {
				return rows[i].score > rows[j].score
			}
			return rows[i].name < rows[j].name
		})
		for i, r := range rows {
			if i == 6 {
				fmt.Printf("      ... %d more\n", len(rows)-i)
				break
			}
			fmt.Printf("      %-28s %.4f\n", r.name, r.score)
		}
	}
}
