// Package core wires the XOntoRank components — corpus, ontology,
// index creation, and query processing — into one system facade, the
// architecture of the paper's Figure 8: a pre-processing phase (Index
// Creation Module producing XOnto-DILs) and a query phase (XRANK's DIL
// algorithm over them, with a database-access step resolving Dewey IDs
// back to XML fragments).
package core

import (
	"fmt"

	"repro/internal/dil"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
	"repro/internal/query"
	"repro/internal/serving"
	"repro/internal/xmltree"
)

// Config selects the OntoScore strategy and all tunables.
type Config struct {
	// Strategy is the OntoScore computation method; StrategyNone is the
	// XRANK baseline.
	Strategy ontoscore.Strategy
	// DIL holds alpha, the OntoScore parameters (decay, beta,
	// threshold, BM25) and text-extraction options.
	DIL dil.Params
	// Query holds the propagation decay and default k.
	Query query.Params
	// VocabularyHops bounds the ontology neighborhood whose tokens are
	// indexed ahead of time (the paper used 2).
	VocabularyHops int
}

// DefaultConfig returns the paper's experimental settings with the
// Relationships strategy.
func DefaultConfig() Config {
	return Config{
		Strategy:       ontoscore.StrategyRelationships,
		DIL:            dil.DefaultParams(),
		Query:          query.DefaultParams(),
		VocabularyHops: 2,
	}
}

// Result is one search answer resolved against the corpus.
type Result struct {
	// Root is the Dewey identifier of the result element.
	Root xmltree.Dewey
	// Score is the aggregate relevance of equation (4).
	Score float64
	// Document names the containing document.
	Document string
	// Path is the element path of the result root.
	Path string
	// Matches explains, per query keyword, which node satisfied it and
	// with what node score.
	Matches []KeywordMatch
	raw     query.Result
}

// KeywordMatch locates one keyword's best supporting node.
type KeywordMatch struct {
	Keyword string
	ID      xmltree.Dewey
	Score   float64
	Path    string
}

// Raw exposes the underlying query-phase result.
func (r Result) Raw() query.Result { return r.raw }

// System is a searchable XOntoRank instance over one corpus and a
// collection of ontological systems.
type System struct {
	cfg     Config
	corpus  *xmltree.Corpus
	coll    *ontology.Collection
	builder *dil.Builder
	index   *dil.Index
	engine  *query.Engine
	stats   *dil.BuildStats
	aux     AuxDocs // live delta documents, nil unless delta-enabled
}

// New prepares a system over a single ontology: it runs the full-text
// stage immediately (so Search works on demand) but defers the bulk DIL
// build to BuildIndex.
func New(corpus *xmltree.Corpus, ont *ontology.Ontology, cfg Config) *System {
	return NewMulti(corpus, ontology.MustCollection(ont), cfg)
}

// NewMulti prepares a system whose code nodes may reference any system
// of the collection (the paper's O = {O1..Ok}), with an ontology side
// of its own.
func NewMulti(corpus *xmltree.Corpus, coll *ontology.Collection, cfg Config) *System {
	return NewSystems(corpus, ontoscore.NewSide(coll, cfg.DIL.Onto), cfg, cfg.Strategy)[cfg.Strategy]
}

// NewSystems prepares one system per strategy (none given: all of
// ontoscore.Strategies; cfg.Strategy is overridden in each) over a
// single run of the full-text stage, which does not depend on the
// strategy — see dil.NewBuilders — and over the given ontology side
// (built with cfg.DIL.Onto), which does not depend on the corpus.
// Everything that serves or compares several strategies over one
// corpus builds through here.
func NewSystems(corpus *xmltree.Corpus, side *ontoscore.Side, cfg Config, strategies ...ontoscore.Strategy) map[ontoscore.Strategy]*System {
	if len(strategies) == 0 {
		strategies = ontoscore.Strategies()
	}
	coll := side.Collection()
	out := make(map[ontoscore.Strategy]*System, len(strategies))
	for st, builder := range dil.NewBuilders(corpus, side, strategies, cfg.DIL) {
		cfg.Strategy = st
		index := dil.NewIndex()
		out[st] = &System{
			cfg:     cfg,
			corpus:  corpus,
			coll:    coll,
			builder: builder,
			index:   index,
			engine:  query.NewEngine(index, builder, cfg.Query),
		}
	}
	return out
}

// Corpus returns the indexed corpus.
func (s *System) Corpus() *xmltree.Corpus { return s.corpus }

// Ontology returns the first (primary) ontology of the collection.
func (s *System) Ontology() *ontology.Ontology {
	return s.coll.Ontologies()[0]
}

// Collection returns the full ontological-systems collection.
func (s *System) Collection() *ontology.Collection { return s.coll }

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Builder exposes the index-creation module (useful for experiments).
func (s *System) Builder() *dil.Builder { return s.builder }

// Index exposes the in-memory XOnto-DIL index.
func (s *System) Index() *dil.Index { return s.index }

// BuildIndex runs the pre-processing phase over the standing vocabulary
// (corpus tokens plus the configured ontology neighborhood) and returns
// the build statistics.
func (s *System) BuildIndex() (*dil.BuildStats, error) {
	vocab := s.builder.Vocabulary(s.cfg.VocabularyHops)
	ix, stats, err := s.builder.Build(vocab)
	if err != nil {
		return nil, err
	}
	// Swap lists into the engine-visible index.
	for _, kw := range ix.Keywords() {
		s.index.Set(kw, ix.Compact(kw))
	}
	s.stats = stats
	return stats, nil
}

// BuildStats returns the statistics of the last BuildIndex (nil before).
func (s *System) BuildStats() *dil.BuildStats { return s.stats }

// KeywordCacheMetrics reports the engine's bounded on-demand keyword
// cache counters (exposed by the server's /metrics endpoint).
func (s *System) KeywordCacheMetrics() serving.CacheMetrics {
	return s.engine.CacheMetrics()
}

// KeywordListBytes reports the encoded bytes of the lists the engine's
// keyword cache holds (the server's xontorank_memory_bytes gauge).
func (s *System) KeywordListBytes() int64 { return s.engine.KeywordListBytes() }

// resolve hydrates one query result in a single walk: the root is
// located from its document's root node while its tags are appended to
// one buffer, which becomes Result.Path; each match — a descendant or
// self of the root — continues from the root node along its remaining
// components. Only an identifier that does not resolve under the root
// falls back to a separate NodeAt(...).Path().
func (s *System) resolve(keywords []query.Keyword, r query.Result) Result {
	res := Result{Root: r.Root, Score: r.Score, raw: r}
	var root *xmltree.Node
	var buf []byte
	if doc := s.docByID(r.Root.DocID()); doc != nil {
		res.Document = doc.Name
		if doc.Root != nil && len(r.Root) > 0 && r.Root[0] == doc.ID {
			root, buf = walkPath(doc.Root, r.Root[1:], append(buf, doc.Root.Tag...))
			if root != nil {
				res.Path = string(buf)
			}
		}
	}
	if len(r.Matches) > 0 {
		res.Matches = make([]KeywordMatch, 0, len(r.Matches))
	}
	for i, m := range r.Matches {
		km := KeywordMatch{ID: m.ID, Score: m.Score}
		if i < len(keywords) {
			km.Keyword = string(keywords[i])
		}
		switch {
		case root != nil && m.ID.Equal(r.Root):
			km.Path = res.Path
		case root != nil && r.Root.IsAncestorOf(m.ID):
			if n, mb := walkPath(root, m.ID[len(r.Root):], buf); n != nil {
				km.Path = string(mb)
			}
		default:
			if n := s.NodeAt(m.ID); n != nil {
				km.Path = n.Path()
			}
		}
		res.Matches = append(res.Matches, km)
	}
	return res
}

// walkPath descends from n along the child ordinals in rel, appending
// "/tag" per step to path. A nil node means rel leaves the tree.
func walkPath(n *xmltree.Node, rel xmltree.Dewey, path []byte) (*xmltree.Node, []byte) {
	for _, ord := range rel {
		if uint(ord) >= uint(len(n.Children)) {
			return nil, path
		}
		n = n.Children[ord]
		path = append(append(path, '/'), n.Tag...)
	}
	return n, path
}

// Snippet builds a short text preview of a result: a window of each
// keyword's supporting node text, with ontological matches annotated.
func (s *System) Snippet(r Result) string {
	keywords := make([]query.Keyword, 0, len(r.Matches))
	for _, m := range r.Matches {
		keywords = append(keywords, query.Keyword(m.Keyword))
	}
	return query.Snippet(s, r.raw, keywords, 8)
}

// Fragment renders a result's subtree as indented XML (Figure 4).
func (s *System) Fragment(r Result) string {
	n := s.NodeAt(r.Root)
	if n == nil {
		return ""
	}
	return xmltree.XMLString(n)
}

// Summary describes the system for reporting.
func (s *System) Summary() string {
	cs := s.corpus.Stats()
	concepts, rels := 0, 0
	for _, o := range s.coll.Ontologies() {
		concepts += o.Len()
		rels += o.NumRelationships()
	}
	line := fmt.Sprintf("strategy=%s %s ontologies: %d systems, %d concepts, %d relationships",
		s.cfg.Strategy, cs, s.coll.Len(), concepts, rels)
	if s.stats != nil {
		line += fmt.Sprintf(" | index: %d keywords, %d postings, %dKB (built in %v)",
			s.stats.Keywords, s.stats.TotalPostings, s.stats.TotalBytes/1024,
			s.stats.FullTextTime+s.stats.OntoScoreTime+s.stats.DILTime)
	}
	return line
}
