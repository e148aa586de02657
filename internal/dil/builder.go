package dil

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/elemrank"
	"repro/internal/faultinject"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
	"repro/internal/xmltree"
)

// Params configure index creation. Alpha weighs the ontological branch
// of equation (5): NS(v, w) = max(IRS(v, w), Alpha * OS(O, w, code(v))).
type Params struct {
	Alpha float64
	Onto  ontoscore.Params
	Text  xmltree.TextOptions
	// ElemRank, when non-nil, incorporates XRANK's structural ElemRank
	// into the node scores (paper Section V: "ElemRank could be
	// incorporated"): each posting's NS is multiplied by the node's
	// max-normalized ElemRank, so structurally authoritative elements —
	// e.g. targets of CDA originalText references — rank higher.
	ElemRank *elemrank.Params
}

// DefaultParams returns the paper's experimental settings (alpha 0.5).
func DefaultParams() Params {
	return Params{Alpha: 0.5, Onto: ontoscore.DefaultParams(), Text: xmltree.DefaultTextOptions()}
}

// KeywordStats records per-keyword creation cost — the raw material of
// the paper's Table III.
type KeywordStats struct {
	Keyword  string
	Postings int
	Bytes    int
	Elapsed  time.Duration
}

// BuildStats aggregates index-creation measurements.
type BuildStats struct {
	Strategy       ontoscore.Strategy
	Keywords       int
	TotalPostings  int
	TotalBytes     int
	FullTextTime   time.Duration
	OntoScoreTime  time.Duration
	DILTime        time.Duration
	PerKeyword     []KeywordStats
	OntoMapEntries int
}

// AvgCreationTime is the mean per-keyword DIL creation time.
func (s *BuildStats) AvgCreationTime() time.Duration {
	if s.Keywords == 0 {
		return 0
	}
	return s.DILTime / time.Duration(s.Keywords)
}

// AvgPostings is the mean posting count per keyword.
func (s *BuildStats) AvgPostings() float64 {
	if s.Keywords == 0 {
		return 0
	}
	return float64(s.TotalPostings) / float64(s.Keywords)
}

// AvgBytes is the mean encoded list size per keyword.
func (s *BuildStats) AvgBytes() float64 {
	if s.Keywords == 0 {
		return 0
	}
	return float64(s.TotalBytes) / float64(s.Keywords)
}

// elemEntry pairs a node with its corpus-wide IR document key.
type elemEntry struct {
	node *xmltree.Node
}

// stage is the full-text stage (stage 1) of the Index Creation Module
// over one corpus snapshot: everything index creation derives from the
// corpus and the ontologies alone. The OntoScore strategy plays no part
// in it, so one stage serves a Builder per strategy (NewBuilders). A
// stage is never written after construction, which is what makes its
// builders safe to use side by side.
type stage struct {
	corpus *xmltree.Corpus
	coll   *ontology.Collection
	params Params

	elements      []elemEntry                     // DocKey -> node
	textBase      *ir.Index                       // elements as documents (bag model, BM25 stats)
	posIx         *ir.Positional                  // token positions for exact phrase tests
	computers     map[string]*ontoscore.Computer  // system id -> computer
	byRef         map[xmltree.OntoRef][]ir.DocKey // reference -> element keys
	ranks         elemrank.Ranks                  // raw ranks; nil unless Params.ElemRank set
	localRanksMax float64                         // max of ranks

	fullTextTime time.Duration
	buildErr     error
}

// Builder is the Index Creation Module: a view, for one OntoScore
// strategy, of the full-text index of the corpus (stage 1). It computes
// OntoScores on demand or in bulk (stage 2) and assembles XOnto-DILs
// (stage 3). Code nodes may reference any ontology of the collection
// (the paper's ontological systems collection O = {O1..Ok}).
//
// What a partitioned or delta-overlaid deployment installs on a builder
// — the statistics overlay, the Calibrator, the global ElemRank
// normalizer — is state of the view, never of the stage: setting it on
// one builder leaves the builders of the other strategies untouched.
type Builder struct {
	*stage
	strategy ontoscore.Strategy

	textIx   *ir.Index  // stage.textBase under this view's statistics overlay
	ranksMax float64    // normalization factor for ranks (corpus-global when overridden)
	calib    Calibrator // nil unless this builder is a corpus partition
}

// Calibrator supplies corpus-global score-calibration facts to a
// builder whose local view differs from the live corpus — a shard of a
// partitioned deployment, or any builder once a delta segment overlays
// live adds and tombstones (internal/delta). The paper's Section III
// normalizes each keyword's IR scores by the maximum over the
// keyword's containing set; that maximum is a global property of the
// live corpus, so it is exchanged through the calibrator
// (internal/shard implements one over all in-process shards,
// internal/delta one over base plus delta minus tombstones). Combined
// with an ir.StatsView overlay on the text index, a builder produces
// node scores bit-identical to a single-node builder over the live
// corpus.
type Calibrator interface {
	// KeywordNorm returns the corpus-global normalization divisor for
	// one keyword: the maximum raw BM25 score over the keyword's global
	// containing set (see Builder.RawTextMax). A return <= 0 means "no
	// global information; fall back to the local maximum". A positive
	// return is authoritative: it replaces the local maximum even when
	// smaller (tombstones can shrink the true containing set below
	// what this builder still has indexed).
	KeywordNorm(keyword string) float64
}

// SetCalibrator installs the cross-partition score calibrator. Call it
// while the builder is off-line (before it serves queries); it is not
// synchronized with concurrent builds.
func (b *Builder) SetCalibrator(c Calibrator) { b.calib = c }

// Calibrator returns the installed calibrator (nil when none).
func (b *Builder) Calibrator() Calibrator { return b.calib }

// LocalTextStats snapshots the partition-local statistics of the
// full-text stage (stage 1), for merging into corpus-global statistics
// with ir.MergeStats.
func (b *Builder) LocalTextStats() ir.Stats { return b.textIx.LocalStats() }

// SetGlobalTextStats overlays corpus-global collection statistics on
// the full-text index, so BM25 on this partition scores with global
// IDF and average length. Off-line only, like SetCalibrator.
func (b *Builder) SetGlobalTextStats(s ir.Stats) { b.textIx.SetGlobalStats(s) }

// SetGlobalTextStatsView installs a live statistics view instead of a
// frozen snapshot (see ir.StatsView). The assignment is off-line only;
// the view itself may answer from concurrently updated data.
func (b *Builder) SetGlobalTextStatsView(v ir.StatsView) { b.textIx.SetGlobalStatsView(v) }

// RanksMax reports the builder's ElemRank normalization factor (0 when
// ElemRank is not configured).
func (b *Builder) RanksMax() float64 { return b.ranksMax }

// SetRanksMax overrides the ElemRank normalization factor with a
// corpus-global maximum (partitioned deployments take the max across
// shards). Off-line only.
func (b *Builder) SetRanksMax(max float64) {
	if max > 0 {
		b.ranksMax = max
	}
}

// RawTextMax computes the maximum raw (unnormalized) BM25 score over
// this partition's containing set for one keyword — the partition's
// contribution to the global normalization divisor a Calibrator
// aggregates. Returns 0 when no local element contains the keyword.
func (b *Builder) RawTextMax(keyword string) float64 {
	terms := xmltree.Tokenize(keyword)
	if len(terms) == 0 {
		return 0
	}
	max := 0.0
	for _, key := range b.posIx.PhraseDocs(terms) {
		if s := b.textIx.BM25(b.params.Onto.BM25, key, terms); s > max {
			max = s
		}
	}
	return max
}

// RawTextMaxLive is RawTextMax restricted to live documents: elements
// whose document the dead predicate reports true for are excluded from
// the containing set. A delta segment passes its tombstone set so the
// normalization divisor tracks deletions before compaction folds them
// into a fresh base.
func (b *Builder) RawTextMaxLive(keyword string, dead func(docID int32) bool) float64 {
	if dead == nil {
		return b.RawTextMax(keyword)
	}
	terms := xmltree.Tokenize(keyword)
	if len(terms) == 0 {
		return 0
	}
	max := 0.0
	for _, key := range b.posIx.PhraseDocs(terms) {
		if dead(b.node(key).ID.DocID()) {
			continue
		}
		if s := b.textIx.BM25(b.params.Onto.BM25, key, terms); s > max {
			max = s
		}
	}
	return max
}

// FullTextTime is how long the builder's full-text stage took to run —
// once, however many strategies' builders share it.
func (b *Builder) FullTextTime() time.Duration { return b.fullTextTime }

// Err reports a construction-time failure (ElemRank misconfiguration);
// Build surfaces it, on-demand BuildKeyword treats ranks as absent.
func (b *Builder) Err() error { return b.buildErr }

// NewBuilder runs the full-text stage against a single ontology; it is
// NewMultiBuilder over a one-element collection.
func NewBuilder(corpus *xmltree.Corpus, ont *ontology.Ontology, strategy ontoscore.Strategy, params Params) *Builder {
	return NewMultiBuilder(corpus, ontology.MustCollection(ont), strategy, params)
}

// NewMultiBuilder runs the full-text stage over the corpus and prepares
// one OntoScore computer per ontological system. The corpus documents
// must already carry Dewey IDs (xmltree.Corpus.Add assigns them).
func NewMultiBuilder(corpus *xmltree.Corpus, coll *ontology.Collection, strategy ontoscore.Strategy, params Params) *Builder {
	return NewBuilders(corpus, coll, []ontoscore.Strategy{strategy}, params)[strategy]
}

// NewBuilders runs the full-text stage once and returns one builder per
// strategy over it. The stage is the expensive part and does not depend
// on the strategy (the paper's three OntoScore methods differ in stage 2
// only), so this is how every multi-strategy deployment — the server's
// generations, shards, delta segments, the experiments — builds.
func NewBuilders(corpus *xmltree.Corpus, coll *ontology.Collection, strategies []ontoscore.Strategy, params Params) map[ontoscore.Strategy]*Builder {
	s := newStage(corpus, coll, params)
	out := make(map[ontoscore.Strategy]*Builder, len(strategies))
	for _, st := range strategies {
		out[st] = &Builder{stage: s, strategy: st, textIx: s.textBase.Overlay(nil), ranksMax: s.localRanksMax}
	}
	return out
}

func newStage(corpus *xmltree.Corpus, coll *ontology.Collection, params Params) *stage {
	start := time.Now()
	s := &stage{
		corpus:    corpus,
		coll:      coll,
		params:    params,
		textBase:  ir.NewIndex(),
		posIx:     ir.NewPositional(),
		computers: make(map[string]*ontoscore.Computer, coll.Len()),
		byRef:     make(map[xmltree.OntoRef][]ir.DocKey),
	}
	for _, doc := range corpus.Docs() {
		s.indexDocument(doc)
	}
	for _, ont := range coll.Ontologies() {
		s.computers[ont.SystemID] = ontoscore.NewComputer(ont, params.Onto)
	}
	if params.ElemRank != nil {
		ranks, err := elemrank.ComputeCorpus(corpus, *params.ElemRank)
		if err != nil {
			s.buildErr = err
		} else {
			s.ranks = ranks
			s.localRanksMax = ranks.Max()
		}
	}
	s.fullTextTime = time.Since(start)
	return s
}

func (s *stage) indexDocument(doc *xmltree.Document) {
	for _, n := range doc.Nodes() {
		key := ir.DocKey(len(s.elements))
		s.elements = append(s.elements, elemEntry{node: n})
		tokens := xmltree.Tokenize(xmltree.TextDescription(n, s.params.Text))
		s.textBase.Add(key, tokens)
		s.posIx.Add(key, tokens)
		if ref, ok := n.OntoRef(); ok {
			if _, inColl := s.coll.System(ref.System); inColl {
				s.byRef[ref] = append(s.byRef[ref], key)
			}
		}
	}
}

// Strategy returns the OntoScore strategy the builder indexes with.
func (b *Builder) Strategy() ontoscore.Strategy { return b.strategy }

// Collection returns the ontological-systems collection.
func (b *Builder) Collection() *ontology.Collection { return b.coll }

// Computer returns the OntoScore computer for one ontological system
// (nil if the system is not in the collection).
func (b *Builder) Computer(systemID string) *ontoscore.Computer {
	return b.computers[systemID]
}

// node resolves an element key.
func (b *Builder) node(key ir.DocKey) *xmltree.Node { return b.elements[key].node }

// Vocabulary assembles the keyword universe to index: every token of
// the corpus plus every token of ontology concepts within the given
// number of relationship hops (undirected) of a concept referenced by
// some document — the paper indexed 2 hops. Neighborhoods are computed
// per ontological system.
func (b *Builder) Vocabulary(hops int) []string {
	set := make(map[string]bool)
	for _, e := range b.elements {
		for _, tok := range xmltree.Tokenize(xmltree.TextDescription(e.node, b.params.Text)) {
			set[tok] = true
		}
	}
	for _, ont := range b.coll.Ontologies() {
		for _, tok := range b.systemNeighborhoodTokens(ont, hops) {
			set[tok] = true
		}
	}
	out := make([]string, 0, len(set))
	for tok := range set {
		out = append(out, tok)
	}
	sort.Strings(out)
	return out
}

func (b *Builder) systemNeighborhoodTokens(ont *ontology.Ontology, hops int) []string {
	frontier := make(map[ontology.ConceptID]bool)
	for ref := range b.byRef {
		if ref.System != ont.SystemID {
			continue
		}
		if c, ok := ont.ByCode(ref.Code); ok {
			frontier[c.ID] = true
		}
	}
	visited := make(map[ontology.ConceptID]bool, len(frontier))
	for id := range frontier {
		visited[id] = true
	}
	for h := 0; h < hops; h++ {
		next := make(map[ontology.ConceptID]bool)
		for id := range frontier {
			for _, nb := range ont.Neighbors(id) {
				if !visited[nb] {
					visited[nb] = true
					next[nb] = true
				}
			}
		}
		frontier = next
	}
	var out []string
	for id := range visited {
		out = append(out, xmltree.Tokenize(ont.TermText(id))...)
	}
	return out
}

// textScores computes the normalized IR branch of NS for one keyword:
// every element whose textual description contains the keyword (as a
// contiguous phrase), scored by BM25 normalized over the containing
// set.
func (b *Builder) textScores(keyword string) map[ir.DocKey]float64 {
	terms := xmltree.Tokenize(keyword)
	if len(terms) == 0 {
		return nil
	}
	// Phrase candidates come from the positional index, which saw the
	// exact token streams the builder indexed (the node-walking test
	// would re-tokenize under default options and diverge when custom
	// TextOptions are configured).
	candidates := b.posIx.PhraseDocs(terms)
	if len(candidates) == 0 {
		return nil
	}
	raw := make(map[ir.DocKey]float64, len(candidates))
	max := 0.0
	for _, key := range candidates {
		s := b.textIx.BM25(b.params.Onto.BM25, key, terms)
		raw[key] = s
		if s > max {
			max = s
		}
	}
	// When this builder's view differs from the live corpus, the
	// normalization divisor is the GLOBAL maximum over the keyword's
	// live containing set, exchanged through the calibrator. A positive
	// answer is authoritative — with tombstones the true global maximum
	// can be smaller than the stale local one (and on a shard it is
	// always >= local, so this also covers the partition case).
	if b.calib != nil {
		if g := b.calib.KeywordNorm(keyword); g > 0 {
			max = g
		}
	}
	if max == 0 {
		for k := range raw {
			raw[k] = 1
		}
		return raw
	}
	for k, s := range raw {
		raw[k] = s / max
	}
	return raw
}

// FPOntoResolve fires during ontology concept resolution on the
// fallible build path (BuildKeywordE) — the query engine's circuit
// breaker guards exactly this boundary.
const FPOntoResolve = "dil.ontoscore"

// BuildKeyword assembles the XOnto-DIL of one keyword: text postings
// merged (by max, per equation (5)) with alpha-scaled OntoScore
// postings on code nodes referencing associated concepts of any system.
func (b *Builder) BuildKeyword(keyword string) List {
	return b.BuildKeywordCtx(context.Background(), keyword)
}

// BuildKeywordCtx is BuildKeyword under a context: when the context
// carries an obs trace, the build is recorded as a "dil.build_keyword"
// span with "dil.text_scores" and "ontoscore.propagate" children — the
// per-stage attribution (DIL lookup vs OntoScore propagation) of the
// paper's evaluation.
func (b *Builder) BuildKeywordCtx(ctx context.Context, keyword string) List {
	ctx, sp := obs.StartSpan(ctx, "dil.build_keyword")
	sp.SetAttr("keyword", keyword)
	l := b.assemble(keyword, b.textScoresCtx(ctx, keyword), b.ontoScoresCtx(ctx, keyword))
	sp.SetAttr("postings", len(l))
	sp.End()
	return l
}

// BuildKeywordE is BuildKeyword with an error channel for the ontology
// path; the query engine retries and circuit-breaks around it.
func (b *Builder) BuildKeywordE(keyword string) (List, error) {
	return b.BuildKeywordECtx(context.Background(), keyword)
}

// BuildKeywordECtx is BuildKeywordE with span instrumentation (see
// BuildKeywordCtx).
func (b *Builder) BuildKeywordECtx(ctx context.Context, keyword string) (List, error) {
	ctx, sp := obs.StartSpan(ctx, "dil.build_keyword")
	sp.SetAttr("keyword", keyword)
	defer sp.End()
	onto, err := b.ontoScoresECtx(ctx, keyword)
	if err != nil {
		sp.SetAttr("error", err.Error())
		return nil, err
	}
	l := b.assemble(keyword, b.textScoresCtx(ctx, keyword), onto)
	sp.SetAttr("postings", len(l))
	return l, nil
}

// BuildKeywordIR assembles the degraded, IR-only DIL of one keyword:
// NS(v, w) = IRS(v, w), skipping the ontology branch entirely. This is
// exactly what a StrategyNone (XRANK baseline) system computes, and it
// is what searches fall back to when the ontology path's circuit
// breaker is open.
func (b *Builder) BuildKeywordIR(keyword string) List {
	return b.BuildKeywordIRCtx(context.Background(), keyword)
}

// BuildKeywordIRCtx is BuildKeywordIR with span instrumentation; the
// span carries ir_only=true so degraded builds are visible in traces.
func (b *Builder) BuildKeywordIRCtx(ctx context.Context, keyword string) List {
	ctx, sp := obs.StartSpan(ctx, "dil.build_keyword")
	sp.SetAttr("keyword", keyword)
	sp.SetAttr("ir_only", true)
	l := b.assemble(keyword, b.textScoresCtx(ctx, keyword), nil)
	sp.SetAttr("postings", len(l))
	sp.End()
	return l
}

// textScoresCtx wraps textScores in a "dil.text_scores" span.
func (b *Builder) textScoresCtx(ctx context.Context, keyword string) map[ir.DocKey]float64 {
	_, sp := obs.StartSpan(ctx, "dil.text_scores")
	sp.SetAttr("keyword", keyword)
	m := b.textScores(keyword)
	sp.SetAttr("elements", len(m))
	sp.End()
	return m
}

// ontoScoresCtx is ontoScores with per-system propagation spans.
func (b *Builder) ontoScoresCtx(ctx context.Context, keyword string) map[string]ontoscore.Scores {
	out := make(map[string]ontoscore.Scores, len(b.computers))
	for sys, c := range b.computers {
		if s := c.ComputeCtx(ctx, b.strategy, keyword); len(s) > 0 {
			out[sys] = s
		}
	}
	return out
}

// ontoScoresECtx is ontoScoresE with per-system propagation spans.
func (b *Builder) ontoScoresECtx(ctx context.Context, keyword string) (map[string]ontoscore.Scores, error) {
	out := make(map[string]ontoscore.Scores, len(b.computers))
	for sys, c := range b.computers {
		if err := faultinject.Hit(FPOntoResolve); err != nil {
			return nil, fmt.Errorf("dil: resolving %q against system %s: %w", keyword, sys, err)
		}
		if s := c.ComputeCtx(ctx, b.strategy, keyword); len(s) > 0 {
			out[sys] = s
		}
	}
	return out, nil
}

// assemble merges one keyword's text scores with alpha-scaled
// OntoScore postings into the final sorted list.
func (b *Builder) assemble(keyword string, text map[ir.DocKey]float64, onto map[string]ontoscore.Scores) List {
	scores := make(map[ir.DocKey]float64)
	for key, s := range text {
		scores[key] = s
	}
	for sys, perConcept := range onto {
		ont, ok := b.coll.System(sys)
		if !ok {
			continue
		}
		for id, os := range perConcept {
			c := ont.Concept(id)
			if c == nil {
				continue
			}
			v := b.params.Alpha * os
			ref := xmltree.OntoRef{System: sys, Code: c.Code}
			for _, key := range b.byRef[ref] {
				if v > scores[key] {
					scores[key] = v
				}
			}
		}
	}
	if len(scores) == 0 {
		return nil
	}
	out := make(List, 0, len(scores))
	for key, s := range scores {
		id := b.node(key).ID
		if b.ranks != nil && b.ranksMax > 0 {
			s *= b.ranks.Rank(id) / b.ranksMax
		}
		if s <= 0 {
			continue
		}
		out = append(out, Posting{ID: id, Score: s})
	}
	out.Sort()
	return out
}

// Build runs the OntoScore and DIL stages for an entire vocabulary,
// returning the index and the stage timings and sizes (Table III's
// measurements). Keywords are processed concurrently; results are
// deterministic.
func (b *Builder) Build(vocabulary []string) (*Index, *BuildStats, error) {
	if len(vocabulary) == 0 {
		return nil, nil, fmt.Errorf("dil: empty vocabulary")
	}
	stats := &BuildStats{Strategy: b.strategy, FullTextTime: b.fullTextTime}

	ontoStart := time.Now()
	maps := make(map[string]*ontoscore.Map, len(b.computers))
	for sys, c := range b.computers {
		m := ontoscore.BuildMap(c, b.strategy, vocabulary)
		maps[sys] = m
		stats.OntoMapEntries += m.Entries()
	}
	stats.OntoScoreTime = time.Since(ontoStart)

	type result struct {
		i    int
		stat KeywordStats
		list List
	}
	dilStart := time.Now()
	workers := runtime.GOMAXPROCS(0)
	if workers > len(vocabulary) {
		workers = len(vocabulary)
	}
	in := make(chan int)
	out := make(chan result)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range in {
				kw := vocabulary[i]
				start := time.Now()
				onto := make(map[string]ontoscore.Scores, len(maps))
				for sys, m := range maps {
					if s := m.ScoresFor(kw); len(s) > 0 {
						onto[sys] = s
					}
				}
				list := b.assemble(kw, b.textScores(kw), onto)
				out <- result{
					i: i,
					stat: KeywordStats{
						Keyword:  kw,
						Postings: len(list),
						Bytes:    list.EncodedSize(),
						Elapsed:  time.Since(start),
					},
					list: list,
				}
			}
		}()
	}
	go func() {
		for i := range vocabulary {
			in <- i
		}
		close(in)
		wg.Wait()
		close(out)
	}()

	ix := NewIndex()
	perKw := make([]KeywordStats, len(vocabulary))
	for r := range out {
		perKw[r.i] = r.stat
		if len(r.list) > 0 {
			ix.Set(vocabulary[r.i], r.list)
		}
	}
	stats.DILTime = time.Since(dilStart)
	stats.PerKeyword = perKw
	stats.Keywords = len(vocabulary)
	for _, ks := range perKw {
		stats.TotalPostings += ks.Postings
		stats.TotalBytes += ks.Bytes
	}
	return ix, stats, nil
}
