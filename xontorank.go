// Package xontorank is the public API of this XOntoRank
// implementation: ontology-aware keyword search over XML-based
// electronic medical records, reproducing Farfán, Hristidis,
// Ranganathan and Weiner, "XOntoRank: Ontology-Aware Search of
// Electronic Medical Records", ICDE 2009.
//
// A System indexes a corpus of HL7-CDA-like XML documents against a
// SNOMED-CT-like ontology and answers keyword queries whose terms may
// match documents either textually or through ontological association
// (the paper's OntoScore). Three association strategies are available —
// Graph, Taxonomy and Relationships — alongside the XRANK baseline.
//
// Minimal usage:
//
//	ont, _ := xontorank.GenerateOntology(xontorank.DefaultOntologyConfig())
//	corpus, _ := xontorank.GenerateCorpus(xontorank.DefaultCorpusConfig(), ont)
//	sys := xontorank.New(corpus, ont, xontorank.DefaultConfig())
//	resp, _ := sys.Query(ctx, xontorank.SearchRequest{
//		Query: `"bronchial structure" theophylline`, K: 10,
//	})
//
// See the examples directory for runnable programs and DESIGN.md for
// the mapping from the paper's sections to packages.
package xontorank

import (
	"io"

	"repro/internal/cda"
	"repro/internal/core"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
	"repro/internal/query"
	"repro/internal/xmltree"
)

// Core system facade.
type (
	// System is a searchable XOntoRank instance.
	System = core.System
	// Config selects the strategy and all tunables.
	Config = core.Config
	// Result is one resolved search answer.
	Result = core.Result
	// KeywordMatch explains one keyword's supporting node.
	KeywordMatch = core.KeywordMatch
	// SearchRequest is the unified request of System.Query — the sole
	// search entry point: every former Search* method variant is one
	// of its option combinations (K and Offset for the ranked window,
	// Explain for snippets, Trace for the span tree).
	SearchRequest = core.SearchRequest
	// SearchResponse is what System.Query produces: resolved results,
	// degradation info, a per-stage timing breakdown, and (on request)
	// the trace.
	SearchResponse = core.SearchResponse
	// Timing is the per-stage latency breakdown in microseconds.
	Timing = core.Timing
)

// Strategy selects how OntoScores are computed.
type Strategy = ontoscore.Strategy

// The four approaches evaluated in the paper.
const (
	StrategyXRANK         = ontoscore.StrategyNone
	StrategyGraph         = ontoscore.StrategyGraph
	StrategyTaxonomy      = ontoscore.StrategyTaxonomy
	StrategyRelationships = ontoscore.StrategyRelationships
)

// Strategies lists the four approaches in the paper's column order.
func Strategies() []Strategy { return ontoscore.Strategies() }

// Document model.
type (
	// Corpus is an ordered collection of XML documents.
	Corpus = xmltree.Corpus
	// Document is one XML document.
	Document = xmltree.Document
	// Node is one XML element.
	Node = xmltree.Node
	// Dewey is a Dewey identifier.
	Dewey = xmltree.Dewey
)

// Ontology model.
type (
	// Ontology is a clinical concept graph.
	Ontology = ontology.Ontology
	// Concept is one ontology concept.
	Concept = ontology.Concept
	// ConceptID identifies a concept.
	ConceptID = ontology.ConceptID
	// OntologyConfig configures the synthetic ontology generator.
	OntologyConfig = ontology.GenConfig
	// CorpusConfig configures the synthetic EMR corpus generator.
	CorpusConfig = cda.GenConfig
)

// Keyword is one parsed query keyword (possibly a phrase).
type Keyword = query.Keyword

// New prepares a system over a corpus and ontology.
func New(corpus *Corpus, ont *Ontology, cfg Config) *System {
	return core.New(corpus, ont, cfg)
}

// DefaultConfig returns the paper's experimental settings
// (decay = 0.5, threshold = 0.1, alpha = beta = 0.5) with the
// Relationships strategy.
func DefaultConfig() Config { return core.DefaultConfig() }

// ParseQuery splits a query string into keywords; double-quoted
// segments become phrase keywords.
func ParseQuery(q string) []Keyword { return query.ParseQuery(q) }

// ParseXML reads one XML document.
func ParseXML(r io.Reader) (*Document, error) { return xmltree.Parse(r) }

// NewCorpus returns an empty corpus; add parsed or generated documents
// with its Add method.
func NewCorpus() *Corpus { return xmltree.NewCorpus() }

// LoadOntology reads an ontology saved with Ontology.Save.
func LoadOntology(r io.Reader) (*Ontology, error) { return ontology.Load(r) }

// DefaultOntologyConfig returns a laptop-scale synthetic-SNOMED
// configuration.
func DefaultOntologyConfig() OntologyConfig { return ontology.DefaultGenConfig() }

// GenerateOntology builds the deterministic synthetic SNOMED-CT-like
// ontology (curated respiratory and cardiology cores plus synthetic
// expansion).
func GenerateOntology(cfg OntologyConfig) (*Ontology, error) { return ontology.Generate(cfg) }

// FigureTwoFragment returns the curated respiratory fragment
// reproducing the paper's Figure 2.
func FigureTwoFragment() *Ontology { return ontology.Figure2Fragment() }

// DefaultCorpusConfig returns a small synthetic-EMR configuration.
func DefaultCorpusConfig() CorpusConfig { return cda.DefaultGenConfig() }

// GenerateCorpus builds a deterministic synthetic CDA corpus whose code
// nodes reference the ontology.
func GenerateCorpus(cfg CorpusConfig, ont *Ontology) (*Corpus, error) {
	g, err := cda.NewGenerator(cfg, ont)
	if err != nil {
		return nil, err
	}
	return g.GenerateCorpus(), nil
}

// GenerateFigureOne reproduces the paper's Figure 1 document against
// the curated concepts of the ontology.
func GenerateFigureOne(ont *Ontology) (*Document, error) { return cda.GenerateFigure1(ont) }
