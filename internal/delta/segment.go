package delta

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dil"
	"repro/internal/ir"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
	"repro/internal/xmltree"
)

// Config fixes a segment's indexing parameters; they must match the
// base generation's so base and delta postings score identically.
type Config struct {
	// Coll is the ontological-systems collection.
	Coll *ontology.Collection
	// Strategies lists the OntoScore strategies served (one delta
	// builder each).
	Strategies []ontoscore.Strategy
	// DIL holds alpha, OntoScore and text-extraction parameters.
	DIL dil.Params
	// Limits guard replayed/applied document parses (zero value:
	// xmltree.DefaultLimits).
	Limits xmltree.Limits
	// Owner maps a document name to its owning shard; nil means
	// unsharded (every document owned by shard 0).
	Owner func(name string) int
}

// docEntry is one live (or superseded) delta document.
type docEntry struct {
	id    int32
	name  string
	doc   *xmltree.Document
	body  []byte
	stats ir.Stats // this document's contribution to collection stats
	owner int
}

// adjustment is the cumulative delta over the base statistics
// snapshot: contributions of delta documents added, contributions of
// tombstoned documents subtracted.
type adjustment struct {
	n        int
	totalLen int64
	df       map[string]int
}

func (a adjustment) clone() adjustment {
	df := make(map[string]int, len(a.df))
	for t, c := range a.df {
		df[t] = c
	}
	return adjustment{n: a.n, totalLen: a.totalLen, df: df}
}

func (a *adjustment) add(s ir.Stats, sign int) {
	a.n += sign * s.N
	a.totalLen += int64(sign) * s.TotalLen
	for t, c := range s.DF {
		next := a.df[t] + sign*c
		if next == 0 {
			delete(a.df, t)
		} else {
			a.df[t] = next
		}
	}
}

// segState is one immutable snapshot of the delta segment. Every apply
// builds a fresh state and publishes it with an atomic pointer swap,
// so the query path reads without locks and each query sees one
// consistent state end to end. The delta builders are rebuilt per
// apply — the delta is small by construction (the compactor folds it
// into the base before it grows), so the rebuild is O(delta), never
// O(corpus).
type segState struct {
	version uint64
	seq     uint64 // last applied WAL sequence

	base      *xmltree.Corpus
	baseStats ir.Stats

	builders map[ontoscore.Strategy]*dil.Builder
	live     map[string]*docEntry // live delta documents by name
	byID     map[int32]*docEntry  // all delta documents ever (hydration)
	dead     map[int32]bool       // suppressed doc IDs: base tombstones + superseded delta
	deadBase map[int32]string     // tombstoned base documents: id -> name
	adj      adjustment
	nextID   int32
}

func (s *segState) isDead(docID int32) bool { return s.dead[docID] }

// Segment is the mutable delta overlaying one base generation. All
// mutation (Apply, Rebase) is serialized by the caller's admin gate
// and additionally by an internal mutex; reads are lock-free snapshot
// loads.
type Segment struct {
	cfg     Config
	applyMu sync.Mutex
	state   atomic.Pointer[segState]

	// baseProvider returns the full-corpus base builder of a strategy;
	// the delta builders' calibrators span it so their normalization
	// divisors are corpus-global. Set once at wiring time (guarded by
	// applyMu only because rebuilds read it there).
	baseProvider func(ontoscore.Strategy) *dil.Builder
}

// NewSegment returns an empty segment over the base corpus and its
// collection-statistics snapshot (the base builders' LocalTextStats —
// identical across strategies, since the full-text stage is
// strategy-independent).
func NewSegment(base *xmltree.Corpus, baseStats ir.Stats, cfg Config) *Segment {
	if cfg.Limits == (xmltree.Limits{}) {
		cfg.Limits = xmltree.DefaultLimits()
	}
	s := &Segment{cfg: cfg}
	s.state.Store(emptyState(base, baseStats, cfg, 1))
	return s
}

func emptyState(base *xmltree.Corpus, baseStats ir.Stats, cfg Config, version uint64) *segState {
	return &segState{
		version:   version,
		base:      base,
		baseStats: baseStats,
		builders:  map[ontoscore.Strategy]*dil.Builder{},
		live:      map[string]*docEntry{},
		byID:      map[int32]*docEntry{},
		dead:      map[int32]bool{},
		deadBase:  map[int32]string{},
		adj:       adjustment{df: map[string]int{}},
		nextID:    maxDocID(base) + 1,
	}
}

func maxDocID(c *xmltree.Corpus) int32 {
	var max int32 = -1
	for _, d := range c.Docs() {
		if d.ID > max {
			max = d.ID
		}
	}
	return max
}

// docContribution computes one document's contribution to the
// collection statistics, tokenizing exactly as the builder's full-text
// stage does: every element is one IR document (elements with no
// tokens still count toward N).
func docContribution(doc *xmltree.Document, text xmltree.TextOptions) ir.Stats {
	s := ir.Stats{DF: map[string]int{}}
	for _, n := range doc.Nodes() {
		tokens := xmltree.Tokenize(xmltree.TextDescription(n, text))
		s.N++
		s.TotalLen += int64(len(tokens))
		seen := map[string]bool{}
		for _, t := range tokens {
			if !seen[t] {
				seen[t] = true
				s.DF[t]++
			}
		}
	}
	return s
}

// ErrUnknownDocument reports a delete of a name that is neither a live
// base document nor a live delta document.
type ErrUnknownDocument struct{ Name string }

func (e ErrUnknownDocument) Error() string {
	return fmt.Sprintf("delta: unknown document %q", e.Name)
}

// Has reports whether name is currently a live document (base and not
// tombstoned, or present in the delta).
func (s *Segment) Has(name string) bool {
	st := s.state.Load()
	if _, ok := st.live[name]; ok {
		return true
	}
	if bd := st.base.DocByName(name); bd != nil && !st.dead[bd.ID] {
		return true
	}
	return false
}

// Apply folds one WAL op into the segment, publishing a new state.
// Deletes of unknown names return ErrUnknownDocument but are tolerated
// during replay (the server checks existence before logging, so a
// replayed delete can only be unknown if a later compaction raced a
// crash — in which case skipping it is correct).
func (s *Segment) Apply(op Op) error {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	next, err := s.applyToState(s.state.Load(), op)
	if err != nil {
		return err
	}
	s.state.Store(next)
	return nil
}

// applyToState builds the successor state for one op.
func (s *Segment) applyToState(cur *segState, op Op) (*segState, error) {
	next := &segState{
		version:   cur.version + 1,
		seq:       op.Seq,
		base:      cur.base,
		baseStats: cur.baseStats,
		live:      make(map[string]*docEntry, len(cur.live)+1),
		byID:      make(map[int32]*docEntry, len(cur.byID)+1),
		dead:      make(map[int32]bool, len(cur.dead)+1),
		deadBase:  make(map[int32]string, len(cur.deadBase)),
		adj:       cur.adj.clone(),
		nextID:    cur.nextID,
	}
	for k, v := range cur.live {
		next.live[k] = v
	}
	for k, v := range cur.byID {
		next.byID[k] = v
	}
	for k, v := range cur.dead {
		next.dead[k] = v
	}
	for k, v := range cur.deadBase {
		next.deadBase[k] = v
	}

	// Tombstone whatever currently answers to the name.
	supersede := func(name string) {
		if e, ok := next.live[name]; ok {
			next.dead[e.id] = true
			next.adj.add(e.stats, -1)
			delete(next.live, name)
			return
		}
		if bd := next.base.DocByName(name); bd != nil && !next.dead[bd.ID] {
			next.dead[bd.ID] = true
			next.deadBase[bd.ID] = name
			next.adj.add(docContribution(bd, s.cfg.DIL.Text), -1)
		}
	}

	switch op.Kind {
	case OpPut:
		doc, err := xmltree.ParseLimited(bytes.NewReader(op.Body), s.cfg.Limits)
		if err != nil {
			return nil, fmt.Errorf("delta: apply seq %d (%s %q): %w", op.Seq, op.Kind, op.Name, err)
		}
		supersede(op.Name)
		doc.Name = op.Name
		doc.ID = next.nextID
		next.nextID++
		doc.AssignDewey()
		owner := 0
		if s.cfg.Owner != nil {
			owner = s.cfg.Owner(op.Name)
		}
		e := &docEntry{
			id:    doc.ID,
			name:  op.Name,
			doc:   doc,
			body:  op.Body,
			stats: docContribution(doc, s.cfg.DIL.Text),
			owner: owner,
		}
		next.live[op.Name] = e
		next.byID[e.id] = e
		next.adj.add(e.stats, 1)
	case OpDelete:
		if _, ok := next.live[op.Name]; !ok {
			bd := next.base.DocByName(op.Name)
			if bd == nil || next.dead[bd.ID] {
				return nil, ErrUnknownDocument{Name: op.Name}
			}
		}
		supersede(op.Name)
	default:
		return nil, fmt.Errorf("delta: apply seq %d: unknown op kind %d", op.Seq, op.Kind)
	}

	s.rebuildBuilders(next)
	return next, nil
}

// rebuildBuilders reindexes the live delta documents into fresh
// per-strategy builders. Each builder gets a statistics view and a
// calibrator pinned to this state, so postings it produces are scored
// against the state's own global picture.
func (s *Segment) rebuildBuilders(st *segState) {
	st.builders = make(map[ontoscore.Strategy]*dil.Builder, len(s.cfg.Strategies))
	if len(st.live) == 0 {
		return
	}
	entries := make([]*docEntry, 0, len(st.live))
	for _, e := range st.live {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].id < entries[j].id })
	corpus := xmltree.NewCorpus()
	for _, e := range entries {
		corpus.AddExisting(e.doc)
	}
	st.builders = dil.NewBuilders(corpus, s.cfg.Coll, s.cfg.Strategies, s.cfg.DIL)
	for strat, b := range st.builders {
		b.SetGlobalTextStatsView(stateStatsView{st})
		if bp := s.baseProvider; bp != nil {
			strat := strat
			b.SetCalibrator(stateCalibrator{s: st, strategy: strat, base: func() *dil.Builder { return bp(strat) }})
		}
	}
}

// Rebase rebuilds the segment over a new base generation (after a
// reload or compaction), replaying ops — the WAL's current records —
// through the same apply path. The version keeps counting so
// result-cache epochs never repeat.
func (s *Segment) Rebase(base *xmltree.Corpus, baseStats ir.Stats, ops []Op) error {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	cur := s.state.Load()
	next := emptyState(base, baseStats, s.cfg, cur.version+1)
	for _, op := range ops {
		n, err := s.applyToState(next, op)
		if err != nil {
			if _, unknown := err.(ErrUnknownDocument); unknown {
				continue // replayed delete already materialized by compaction
			}
			return err
		}
		next = n
	}
	s.state.Store(next)
	return nil
}

// Version is the monotonic state version (folded into serving epochs).
func (s *Segment) Version() uint64 { return s.state.Load().version }

// AppliedSeq is the last WAL sequence folded into the live state.
func (s *Segment) AppliedSeq() uint64 { return s.state.Load().seq }

// Docs is the number of live documents in the delta.
func (s *Segment) Docs() int { return len(s.state.Load().live) }

// Tombstones is the number of suppressed document IDs (tombstoned base
// documents plus superseded delta versions).
func (s *Segment) Tombstones() int { return len(s.state.Load().dead) }

// BaseTombstones is the number of tombstoned base documents — the ones
// a compaction must unlink from the source directory.
func (s *Segment) BaseTombstones() int { return len(s.state.Load().deadBase) }

// AuxDoc resolves a delta document ID for hydration (snippets,
// fragments, result document names); nil for unknown IDs. It satisfies
// core.AuxDocs.
func (s *Segment) AuxDoc(id int32) *xmltree.Document {
	if e, ok := s.state.Load().byID[id]; ok {
		return e.doc
	}
	return nil
}

// OwnerOf reports the owning shard of a delta document ID, or -1 when
// the ID is not a delta document.
func (s *Segment) OwnerOf(docID int32) int {
	if e, ok := s.state.Load().byID[docID]; ok {
		return e.owner
	}
	return -1
}

// IsDead reports whether a document ID is suppressed (tombstoned base
// or superseded delta).
func (s *Segment) IsDead(docID int32) bool { return s.state.Load().dead[docID] }

// Empty reports whether the live state carries no delta at all — no
// live documents and no tombstones (a compaction would be a no-op).
func (s *Segment) Empty() bool {
	st := s.state.Load()
	return len(st.live) == 0 && len(st.dead) == 0
}
