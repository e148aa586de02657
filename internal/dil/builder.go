package dil

import (
	"cmp"
	"context"
	"fmt"
	mathbits "math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

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
}

// DefaultParams returns the paper's experimental settings (alpha 0.5).
func DefaultParams() Params {
	return Params{Alpha: 0.5, Onto: ontoscore.DefaultParams(), Text: xmltree.DefaultTextOptions()}
}

// KeywordStats records per-keyword creation cost — the raw material of
// the paper's Table III. Bytes is the list's encoded size (CompactList).
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

// AvgBytes is the mean encoded list size per keyword (Table III's
// list size).
func (s *BuildStats) AvgBytes() float64 {
	if s.Keywords == 0 {
		return 0
	}
	return float64(s.TotalBytes) / float64(s.Keywords)
}

// stage is the full-text stage (stage 1) of the Index Creation Module
// over one corpus snapshot: everything index creation derives from the
// corpus alone, plus the collection's ontology side (the OntoScore
// computers, built once per collection and shared with every other
// stage over it). The OntoScore strategy plays no part in it, so one
// stage serves a Builder per strategy (NewBuilders). A stage is never
// written after construction (its scratch pool hands each build memory
// of its own), which is what makes its builders safe to use side by
// side.
//
// Element keys are assigned in Dewey order: documents in ascending ID,
// each document's nodes in document order. Every key-ordered sequence
// the stage produces — a term's postings, a concept's referencing
// elements — is therefore already a Dewey-ordered posting sequence,
// and the lists its builders emit name elements by key (IDs).
type stage struct {
	corpus *xmltree.Corpus
	side   *ontoscore.Side
	params Params

	ids      []xmltree.Dewey // DocKey -> the element's Dewey identifier
	keys     *Keys           // ids with the tree shape the merge reads
	docs     []docSpan       // per document, in key order
	text     *ir.Index       // elements as documents: positions, lengths, BM25 statistics
	slot0    []int           // per system (side order): the system's first concept slot
	refStart []int32         // per concept slot, plus one: the slot's first entry in refKeys
	refKeys  []int32         // referencing element keys, slot after slot, each slot's in key order
	slotOf   []int32         // DocKey -> the concept slot it references, -1 if none
	scratch  sync.Pool       // *scratch: per-build working memory

	fullTextTime time.Duration
}

// Builder is the Index Creation Module: a view, for one OntoScore
// strategy, of the full-text index of the corpus (stage 1). It computes
// OntoScores on demand or in bulk (stage 2) and assembles XOnto-DILs
// (stage 3). Code nodes may reference any ontology of the collection
// (the paper's ontological systems collection O = {O1..Ok}).
//
// What a partitioned deployment installs on a builder — the statistics
// overlay and the Calibrator — is state of the view, never of the
// stage: setting it on one builder leaves the builders of the other
// strategies untouched. A live delta installs nothing: each dirty read
// builds through a view pinned to the state it acquired (Pin).
type Builder struct {
	*stage
	strategy ontoscore.Strategy

	textIx *ir.Index  // stage.text under this view's statistics overlay
	calib  Calibrator // nil unless this builder is a corpus partition
	live   *Live      // the live delta state this view is pinned to (Pin)
}

// Calibrator supplies corpus-global score-calibration facts to a
// builder whose local view differs from the corpus — a shard of a
// partitioned deployment. The paper's Section III normalizes each
// keyword's IR scores by the maximum over the keyword's containing set;
// that maximum is a global property of the corpus, so it is exchanged
// through the calibrator (internal/shard implements one over all
// in-process shards, internal/peer one over federated peers). Combined
// with an ir.StatsView overlay on the text index, a builder produces
// node scores bit-identical to a single-node builder over the corpus.
type Calibrator interface {
	// KeywordNorm returns the corpus-global normalization divisor for
	// one keyword: the maximum raw BM25 score over the keyword's global
	// containing set (see Builder.RawTextMax). A return <= 0 means "no
	// global information; fall back to the local maximum". A positive
	// return is authoritative: it replaces the local maximum.
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
// IDF and average length: a frozen ir.Stats snapshot or a live view
// (nil removes the overlay). The assignment is off-line only, like
// SetCalibrator; a live view may answer from concurrently updated data.
func (b *Builder) SetGlobalTextStats(v ir.StatsView) { b.textIx.SetGlobalStats(v) }

// RawTextMax computes the maximum raw (unnormalized) BM25 score over
// this partition's containing set for one keyword — the partition's
// contribution to the global normalization divisor a Calibrator
// aggregates. Returns 0 when no local element contains the keyword.
func (b *Builder) RawTextMax(keyword string) float64 {
	return b.RawTextMaxLive(keyword, nil)
}

// RawTextMaxLive is RawTextMax restricted to live documents: elements
// whose document the dead predicate reports true for are excluded from
// the containing set (nil: every document is live).
func (b *Builder) RawTextMaxLive(keyword string, dead func(docID int32) bool) float64 {
	return b.liveMax(b.rawTextScores(keyword), dead)
}

// liveMax is the maximum of raw scores over the elements of documents
// dead does not report (nil: every document is live).
func (b *Builder) liveMax(raw []ir.Scored, dead func(docID int32) bool) float64 {
	max := 0.0
	live := docFilter{docs: b.docs, drop: dead}
	for _, sd := range raw {
		if sd.Score > max && live.keeps(sd.Doc) {
			max = sd.Score
		}
	}
	return max
}

// rawTextScores is every element containing the keyword (as a
// contiguous phrase), in key order, with its raw BM25 score. Candidates
// and term frequencies both come from the text index's positions, which
// saw the exact token streams the builder indexed (re-tokenizing the
// nodes under default options would diverge when custom TextOptions are
// configured).
func (b *Builder) rawTextScores(keyword string) []ir.Scored {
	terms := xmltree.Tokenize(keyword)
	if len(terms) == 0 {
		return nil
	}
	return b.textIx.PhraseBM25(b.params.Onto.BM25, terms)
}

// FullTextTime is how long the builder's full-text stage took to run —
// once, however many strategies' builders share it.
func (b *Builder) FullTextTime() time.Duration { return b.fullTextTime }

// NewBuilder runs the full-text stage against a single ontology; it is
// NewMultiBuilder over a one-element collection.
func NewBuilder(corpus *xmltree.Corpus, ont *ontology.Ontology, strategy ontoscore.Strategy, params Params) *Builder {
	return NewMultiBuilder(corpus, ontology.MustCollection(ont), strategy, params)
}

// NewMultiBuilder runs the full-text stage over the corpus with an
// ontology side of its own — for one-off builders; deployments that
// build more than one stage over a collection share one side through
// NewBuilders. The corpus documents must already carry Dewey IDs
// (xmltree.Corpus.Add assigns them).
func NewMultiBuilder(corpus *xmltree.Corpus, coll *ontology.Collection, strategy ontoscore.Strategy, params Params) *Builder {
	side := ontoscore.NewSide(coll, params.Onto)
	return NewBuilders(corpus, side, []ontoscore.Strategy{strategy}, params)[strategy]
}

// NewBuilders runs the full-text stage once and returns one builder per
// strategy over it. The stage is the expensive part and does not depend
// on the strategy (the paper's three OntoScore methods differ in stage 2
// only), so this is how every multi-strategy deployment — the server's
// generations, shards, delta segments, the experiments — builds. The
// ontology side is the caller's and is shared, never copied: a stage
// builds no OntoScore computer, and scores with the side's OntoScore
// parameters (params.Onto is ignored).
func NewBuilders(corpus *xmltree.Corpus, side *ontoscore.Side, strategies []ontoscore.Strategy, params Params) map[ontoscore.Strategy]*Builder {
	params.Onto = side.Params()
	s := newStage(corpus, side, params)
	out := make(map[ontoscore.Strategy]*Builder, len(strategies))
	for _, st := range strategies {
		out[st] = &Builder{stage: s, strategy: st, textIx: s.text.Overlay(nil)}
	}
	return out
}

func newStage(corpus *xmltree.Corpus, side *ontoscore.Side, params Params) *stage {
	start := time.Now()
	s := &stage{
		corpus: corpus,
		side:   side,
		params: params,
		text:   ir.NewIndex(),
	}
	// Concept slots number the concepts of all systems densely, system
	// after system, so one table covers the collection.
	slots := 0
	for _, c := range side.Computers() {
		s.slot0 = append(s.slot0, slots)
		slots += c.Concepts()
	}
	docs := slices.Clone(corpus.Docs())
	slices.SortFunc(docs, func(a, b *xmltree.Document) int { return cmp.Compare(a.ID, b.ID) })
	elements := 0
	for _, doc := range docs {
		elements += doc.Size()
	}
	s.ids = make([]xmltree.Dewey, 0, elements)
	s.slotOf = make([]int32, 0, elements)
	s.docs = make([]docSpan, 0, len(docs))
	for _, doc := range docs {
		s.indexDocument(doc)
	}
	s.keys = NewKeys(s.ids)
	s.indexRefs(slots)
	s.scratch.New = s.newScratch
	s.fullTextTime = time.Since(start)
	return s
}

// indexDocument appends one document's elements, in document order, to
// the stage: text postings, positions, and — for code nodes naming a
// concept of the collection — the concept slot referenced.
func (s *stage) indexDocument(doc *xmltree.Document) {
	for _, n := range doc.Nodes() {
		key := ir.DocKey(len(s.ids))
		s.ids = append(s.ids, n.ID)
		tokens := xmltree.Tokenize(xmltree.TextDescription(n, s.params.Text))
		s.text.Add(key, tokens)
		s.slotOf = append(s.slotOf, s.conceptSlot(n))
	}
	s.docs = append(s.docs, docSpan{id: doc.ID, end: ir.DocKey(len(s.ids))})
}

// indexRefs tabulates, once every element has its slot, each concept
// slot's referencing keys as one CSR table: slot s's keys are
// refKeys[refStart[s]:refStart[s+1]], filled in ascending key order.
func (s *stage) indexRefs(slots int) {
	s.refStart = make([]int32, slots+1)
	for _, slot := range s.slotOf {
		if slot >= 0 {
			s.refStart[slot+1]++
		}
	}
	for i := 1; i <= slots; i++ {
		s.refStart[i] += s.refStart[i-1]
	}
	s.refKeys = make([]int32, s.refStart[slots])
	next := slices.Clone(s.refStart[:slots])
	for key, slot := range s.slotOf {
		if slot >= 0 {
			s.refKeys[next[slot]] = int32(key)
			next[slot]++
		}
	}
}

// refsOf returns the keys of the elements referencing a concept slot,
// in key order.
func (s *stage) refsOf(slot int) []int32 {
	return s.refKeys[s.refStart[slot]:s.refStart[slot+1]]
}

// docSpan is one document's run of element keys: its ID and the key
// one past its last element.
type docSpan struct {
	id  int32
	end ir.DocKey
}

// docFilter answers, over ascending element keys, whether an element's
// document is kept, asking drop once per document (a document's
// elements have adjacent keys). A nil drop keeps every document.
type docFilter struct {
	docs []docSpan
	drop func(docID int32) bool
	i    int
	end  ir.DocKey
	kept bool
}

func (f *docFilter) keeps(key ir.DocKey) bool {
	if f.drop == nil {
		return true
	}
	if key >= f.end {
		for key >= f.docs[f.i].end {
			f.i++
		}
		f.end, f.kept = f.docs[f.i].end, !f.drop(f.docs[f.i].id)
	}
	return f.kept
}

// conceptSlot resolves a code node to the slot of the concept it names,
// -1 when it is not a code node or names no concept of the collection.
func (s *stage) conceptSlot(n *xmltree.Node) int32 {
	ref, ok := n.OntoRef()
	if !ok {
		return -1
	}
	for i, c := range s.side.Computers() {
		if c.Ontology().SystemID != ref.System {
			continue
		}
		if con, ok := c.Ontology().ByCode(ref.Code); ok {
			if d, ok := c.Dense(con.ID); ok {
				return int32(s.slot0[i] + d)
			}
		}
	}
	return -1
}

// IDs returns the table resolving the keys of the builder's lists: the
// stage's, followed by the delta stage's when the builder is pinned to
// a live state with pending documents (Pin).
func (b *Builder) IDs() IDs {
	t := IDs{Base: b.keys}
	if b.live != nil && b.live.Delta != nil {
		t.Delta = b.live.Delta.keys
	}
	return t
}

// Strategy returns the OntoScore strategy the builder indexes with.
func (b *Builder) Strategy() ontoscore.Strategy { return b.strategy }

// Collection returns the ontological-systems collection.
func (b *Builder) Collection() *ontology.Collection { return b.side.Collection() }

// Side returns the ontology side the stage shares.
func (b *Builder) Side() *ontoscore.Side { return b.side }

// Computer returns the OntoScore computer for one ontological system
// (nil if the system is not in the collection).
func (b *Builder) Computer(systemID string) *ontoscore.Computer {
	return b.side.Computer(systemID)
}

// Vocabulary assembles the keyword universe to index: every token of
// the corpus plus every token of ontology concepts within the given
// number of relationship hops (undirected) of a concept referenced by
// some document — the paper indexed 2 hops. Neighborhoods are computed
// per ontological system.
func (b *Builder) Vocabulary(hops int) []string {
	set := make(map[string]bool)
	for _, doc := range b.corpus.Docs() {
		for _, n := range doc.Nodes() {
			for _, tok := range xmltree.Tokenize(xmltree.TextDescription(n, b.params.Text)) {
				set[tok] = true
			}
		}
	}
	for _, ont := range b.Collection().Ontologies() {
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
	for _, doc := range b.corpus.Docs() {
		for _, n := range doc.Nodes() {
			if ref, ok := n.OntoRef(); ok && ref.System == ont.SystemID {
				if c, ok := ont.ByCode(ref.Code); ok {
					frontier[c.ID] = true
				}
			}
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
// contiguous phrase), in key order, scored by BM25 normalized over the
// containing set. When this builder's view differs from the live
// corpus, the divisor is the GLOBAL maximum over the keyword's
// containing set, exchanged through the calibrator (on a shard it is
// always >= the local one).
func (b *Builder) textScores(keyword string) []ir.Scored {
	raw := b.rawTextScores(keyword)
	norm := 0.0
	if b.calib != nil && len(raw) > 0 {
		norm = b.calib.KeywordNorm(keyword)
	}
	normalize(raw, norm)
	return raw
}

// normalize divides raw scores by norm — or, when norm is not positive
// (no global information), by their own maximum; every score becomes 1
// when that is 0 too.
func normalize(raw []ir.Scored, norm float64) {
	if norm <= 0 {
		norm = 0
		for _, sd := range raw {
			if sd.Score > norm {
				norm = sd.Score
			}
		}
	}
	for i := range raw {
		if norm == 0 {
			raw[i].Score = 1
		} else {
			raw[i].Score /= norm
		}
	}
}

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
// paper's evaluation. The span's onto attribute says whether the
// OntoScores came from the side's memo or were propagated.
func (b *Builder) BuildKeywordCtx(ctx context.Context, keyword string) List {
	return b.buildKeyword(ctx, keyword, false, nil)
}

// BuildKeywordIRCtx assembles the IR-only DIL of one keyword:
// NS(v, w) = IRS(v, w), skipping the ontology branch entirely — what a
// StrategyNone (XRANK baseline) system computes. Its span carries
// ir_only=true.
func (b *Builder) BuildKeywordIRCtx(ctx context.Context, keyword string) List {
	return b.buildKeyword(ctx, keyword, true, nil)
}

// CompactKeyword is the build the query engine caches and merges: the
// keyword's list as BuildKeywordCtx assembles it, block-coded as its
// postings are emitted, so nothing but the encoding is allocated for
// it (nil for an empty list).
func (b *Builder) CompactKeyword(ctx context.Context, keyword string) *CompactList {
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	e.reset()
	e.block = b.buildKeyword(ctx, keyword, false, e)
	return e.finish(b.IDs())
}

// buildKeyword is the one keyword build: the OntoScores of every system
// of the side (none for an IR-only build), then the text scores,
// assembled — over the live state when the builder is pinned to one
// (Pin). With enc set the postings are encoded as they are emitted and
// the list returned is the last, partial block (see sink).
func (b *Builder) buildKeyword(ctx context.Context, keyword string, irOnly bool, enc *encoder) List {
	ctx, sp := obs.StartSpan(ctx, "dil.build_keyword")
	sp.SetAttr("keyword", keyword)
	defer sp.End()
	var onto []ontoscore.Dense
	if irOnly {
		sp.SetAttr("ir_only", true)
	} else {
		onto = b.ontoScores(ctx, sp, keyword)
	}
	var l List
	if b.live != nil {
		l = b.assembleLive(ctx, sp, keyword, onto, irOnly, enc)
	} else {
		l = b.assemble(b.textScoresCtx(ctx, keyword), onto, enc)
	}
	n := len(l)
	if enc != nil {
		n += enc.n
	}
	sp.SetAttr("postings", n)
	return l
}

// ontoScores reads the keyword's OntoScores on every system of the
// side through its memo, tagging the build span sp with whether they
// all came from the memo.
func (b *Builder) ontoScores(ctx context.Context, sp *obs.Span, keyword string) []ontoscore.Dense {
	onto := make([]ontoscore.Dense, len(b.slot0))
	memo := true
	for i := range onto {
		var hit bool
		onto[i], hit = b.side.Scores(ctx, i, b.strategy, keyword)
		memo = memo && hit
	}
	switch {
	case b.strategy == ontoscore.StrategyNone:
	case memo:
		sp.SetAttr("onto", "memo")
	default:
		sp.SetAttr("onto", "propagated")
	}
	return onto
}

// textScoresCtx wraps textScores in a "dil.text_scores" span.
func (b *Builder) textScoresCtx(ctx context.Context, keyword string) []ir.Scored {
	_, sp := obs.StartSpan(ctx, "dil.text_scores")
	sp.SetAttr("keyword", keyword)
	text := b.textScores(keyword)
	sp.SetAttr("elements", len(text))
	sp.End()
	return text
}

// assemble merges one keyword's text scores (in key order) with
// alpha-scaled OntoScore postings (onto[i] for system i of the side)
// into the final key-ordered list (see mark and emit).
func (b *Builder) assemble(text []ir.Scored, onto []ontoscore.Dense, enc *encoder) List {
	sc, n := b.mark(text, onto)
	return b.emit(sink(n, enc), 0, text, sc, nil, enc)
}

// sink returns what a build of at most n postings emits into: enc's
// block, which emit encodes whenever it fills, or a list with room for
// all of them (nil for none).
func sink(n int, enc *encoder) List {
	if enc != nil {
		return enc.block
	}
	if n == 0 {
		return nil
	}
	return make(List, 0, n)
}

// mark records one keyword's ontology branch in a pooled scratch and
// returns it with the size of the keyword's list: the union of the text
// postings and the code elements of the scored concepts, before
// elements scoring <= 0 (and documents a pinned build drops) leave it.
//
// Keys are Dewey-ordered by construction (see stage), so the list is
// one merge of two key-ordered sequences — the text postings and the
// code elements — with no map, no Dewey comparison and no sort. The
// code elements come out of a bitset over the keys: each scored
// concept — a dense index of its system, so its slot is one addition
// away — marks the keys that reference it (resolved when the stage was
// built), and reading the set back word by word yields them in key
// order. An element references one concept at most, so no key is
// marked twice.
func (b *Builder) mark(text []ir.Scored, onto []ontoscore.Dense) (*scratch, int) {
	sc := b.scratch.Get().(*scratch)
	n := 0
	for i, scores := range onto {
		for j, d := range scores.Idx {
			slot := b.slot0[i] + int(d)
			sc.score[slot] = b.params.Alpha * scores.Score[j]
			keys := b.refsOf(slot)
			for _, key := range keys {
				sc.seen[key>>6] |= 1 << (key & 63)
			}
			n += len(keys)
		}
	}
	for _, sd := range text {
		if sc.seen[sd.Doc>>6]&(1<<(sd.Doc&63)) == 0 {
			n++
		}
	}
	return sc, n
}

// scratch is one build's working memory over a stage, pooled per
// stage: the bitset of element keys an ontology posting lands on, and
// alpha * OntoScore per concept slot (read only for slots whose keys
// are marked, so it is never cleared).
type scratch struct {
	seen  []uint64
	score []float64
}

func (s *stage) newScratch() any {
	return &scratch{seen: make([]uint64, (len(s.ids)+63)/64), score: make([]float64, len(s.refStart)-1)}
}

// emit walks the union of the text postings and the code elements
// marked in sc in key order, appending to out every element — its key
// offset by off, its document, and its final node score — NS, the max
// of the branches — when the score is positive and drop (nil: none) does not report the
// element's document. With enc set, out is enc's block, encoded and
// emptied whenever it fills. It clears the bitset as it goes and
// returns the scratch to the pool.
func (b *Builder) emit(out List, off int32, text []ir.Scored, sc *scratch, drop func(docID int32) bool, enc *encoder) List {
	defer b.scratch.Put(sc)
	live := docFilter{docs: b.docs, drop: drop}
	doc := 0 // b.docs index of the last emitted key's document
	w, bits := -1, uint64(0)
	next := func() (ir.DocKey, bool) {
		for bits == 0 {
			if w++; w == len(sc.seen) {
				return 0, false
			}
			bits, sc.seen[w] = sc.seen[w], 0
		}
		key := ir.DocKey(w<<6 + mathbits.TrailingZeros64(bits))
		bits &= bits - 1
		return key, true
	}
	code, more := next()
	i := 0
	for i < len(text) || more {
		var key ir.DocKey
		var s float64
		switch {
		case !more || (i < len(text) && text[i].Doc < code):
			key, s = text[i].Doc, text[i].Score
			i++
		case i == len(text) || code < text[i].Doc:
			key, s = code, sc.score[b.slotOf[code]]
			code, more = next()
		default:
			key, s = code, text[i].Score
			if v := sc.score[b.slotOf[code]]; v > s {
				s = v
			}
			i++
			code, more = next()
		}
		if s > 0 && live.keeps(key) {
			for key >= b.docs[doc].end {
				doc++
			}
			out = append(out, Posting{Key: int32(key) + off, Doc: b.docs[doc].id, Score: s})
			if enc != nil && len(out) == BlockSize {
				enc.encodeBlock(out)
				out = out[:0]
			}
		}
	}
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
	maps := make([]*ontoscore.Map, len(b.slot0))
	for i, c := range b.side.Computers() {
		maps[i] = ontoscore.BuildMap(c, b.strategy, vocabulary)
		stats.OntoMapEntries += maps[i].Entries()
	}
	stats.OntoScoreTime = time.Since(ontoStart)

	type result struct {
		i    int
		stat KeywordStats
		list *CompactList
	}
	ids := b.IDs()
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
			e := encoders.Get().(*encoder)
			defer encoders.Put(e)
			for i := range in {
				kw := vocabulary[i]
				start := time.Now()
				onto := make([]ontoscore.Dense, len(maps))
				for i, m := range maps {
					onto[i] = m.Dense(kw)
				}
				e.reset()
				e.block = b.assemble(b.textScores(kw), onto, e)
				list := e.finish(ids)
				out <- result{
					i: i,
					stat: KeywordStats{
						Keyword:  kw,
						Postings: list.Len(),
						Bytes:    list.Bytes(),
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
		ix.Set(vocabulary[r.i], r.list)
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
