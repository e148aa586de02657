package dil

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/cda"
	"repro/internal/ir"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
	"repro/internal/xmltree"
)

// reference is the map-based XOnto-DIL build the kernel replaced, kept
// as its oracle: every element re-tokenized from its TextDescription,
// text candidates found by a brute-force phrase scan of those tokens
// and scored one at a time with BM25 written out from the formula (term
// frequency counted in the tokens, statistics counted from them unless
// a global view is given), the ontology branch resolved per concept
// through string-keyed (system, code) references collected from the
// corpus, everything accumulated in a map keyed by Dewey identifier,
// and the result put in Dewey order. It shares nothing with the kernel
// beyond the builder's calibrator and OntoScore computers: not its text
// index, not its statistics.
type reference struct {
	byRef   map[xmltree.OntoRef][]xmltree.Dewey
	elems   []refElem
	byToken map[string][]int // elements whose tokens hold the token
	local   ir.Stats         // the corpus's statistics, counted from elems
}

// refElem is one element of the reference: its identifier and tokens.
type refElem struct {
	id     xmltree.Dewey
	tokens []string
}

func newReference(corpus *xmltree.Corpus, text xmltree.TextOptions) *reference {
	r := &reference{byRef: map[xmltree.OntoRef][]xmltree.Dewey{}, byToken: map[string][]int{}, local: ir.Stats{DF: map[string]int{}}}
	for _, doc := range corpus.Docs() {
		for _, n := range doc.Nodes() {
			if ref, ok := n.OntoRef(); ok {
				r.byRef[ref] = append(r.byRef[ref], n.ID)
			}
			toks := xmltree.Tokenize(xmltree.TextDescription(n, text))
			r.local.N++
			r.local.TotalLen += int64(len(toks))
			seen := map[string]bool{}
			for _, t := range toks {
				if !seen[t] {
					seen[t] = true
					r.local.DF[t]++
					r.byToken[t] = append(r.byToken[t], len(r.elems))
				}
			}
			r.elems = append(r.elems, refElem{id: n.ID, tokens: toks})
		}
	}
	return r
}

// textScores is every element holding the keyword's tokens
// contiguously, with its raw BM25 score under stats (nil: the corpus's
// own).
func (r *reference) textScores(p ir.BM25Params, stats ir.StatsView, keyword string) map[int]float64 {
	terms := xmltree.Tokenize(keyword)
	if len(terms) == 0 {
		return nil
	}
	if stats == nil {
		stats = r.local
	}
	out := map[int]float64{}
	for _, e := range r.byToken[terms[0]] {
		if toks := r.elems[e].tokens; hasPhrase(toks, terms) {
			out[e] = refBM25(p, stats, toks, terms)
		}
	}
	return out
}

// hasPhrase reports whether toks holds phrase contiguously.
func hasPhrase(toks, phrase []string) bool {
	for i := 0; i+len(phrase) <= len(toks); i++ {
		if slices.Equal(toks[i:i+len(phrase)], phrase) {
			return true
		}
	}
	return false
}

// refBM25 is the Robertson–Walker BM25 of one element's tokens against
// terms under stats, written out from the formula: term frequency
// counted in the tokens, IDF with the +1 smoothing, contributions
// summed in term order.
func refBM25(p ir.BM25Params, stats ir.StatsView, toks, terms []string) float64 {
	n := float64(stats.StatsN())
	if n == 0 || stats.StatsTotalLen() == 0 {
		return 0
	}
	avg := float64(stats.StatsTotalLen()) / n
	dl := float64(len(toks))
	score := 0.0
	for _, t := range terms {
		f := 0.0
		for _, tok := range toks {
			if tok == t {
				f++
			}
		}
		if f == 0 {
			continue
		}
		idf := 0.0
		if df := float64(stats.StatsDF(t)); df > 0 {
			idf = math.Log(1 + (n-df+0.5)/(df+0.5))
		}
		score += idf * (f * (p.K1 + 1)) / (f + p.K1*(1-p.B+p.B*dl/avg))
	}
	return score
}

// build is the reference list of one keyword on b's strategy, text
// scored under stats (nil: the corpus's own statistics) and normalized
// by b's calibrator when it has one.
func (r *reference) build(b *Builder, stats ir.StatsView, keyword string, irOnly bool) []Entry {
	scores := map[string]float64{}
	ids := map[string]xmltree.Dewey{}
	raw := r.textScores(b.params.Onto.BM25, stats, keyword)
	max := 0.0
	for _, s := range raw {
		if s > max {
			max = s
		}
	}
	if b.calib != nil && len(raw) > 0 {
		if g := b.calib.KeywordNorm(keyword); g > 0 {
			max = g
		}
	}
	for e, s := range raw {
		if max == 0 {
			s = 1
		} else {
			s /= max
		}
		id := r.elems[e].id
		scores[id.String()] = s
		ids[id.String()] = id
	}
	if !irOnly {
		for _, ont := range b.Collection().Ontologies() {
			for id, os := range b.Computer(ont.SystemID).Compute(b.strategy, keyword) {
				v := b.params.Alpha * os
				for _, d := range r.byRef[xmltree.OntoRef{System: ont.SystemID, Code: ont.Concept(id).Code}] {
					if v > scores[d.String()] {
						scores[d.String()] = v
						ids[d.String()] = d
					}
				}
			}
		}
	}
	var out []Entry
	for k, s := range scores {
		if s > 0 {
			out = append(out, Entry{ID: ids[k], Score: s})
		}
	}
	sortEntries(out)
	return out
}

// rawTextMaxLive is RawTextMaxLive computed by the reference: the
// maximum raw BM25 score under stats over the keyword's elements in
// documents dead does not report.
func (r *reference) rawTextMaxLive(b *Builder, stats ir.StatsView, keyword string, dead func(int32) bool) float64 {
	max := 0.0
	for e, s := range r.textScores(b.params.Onto.BM25, stats, keyword) {
		if dead != nil && dead(r.elems[e].id.DocID()) {
			continue
		}
		if s > max {
			max = s
		}
	}
	return max
}

// liveOnly drops the postings of dead documents.
func liveOnly(l []Entry, dead func(int32) bool) []Entry {
	var out []Entry
	for _, p := range l {
		if !dead(p.ID.DocID()) {
			out = append(out, p)
		}
	}
	return out
}

// sameList reports whether b's list resolves to the entries want, each
// posting carrying its identifier's document.
func sameList(b *Builder, l List, want []Entry) bool {
	for _, p := range l {
		if p.Doc != b.IDs().ID(p.Key)[0] {
			return false
		}
	}
	return sameEntries(b.IDs().Entries(l), want)
}

func sameEntries(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].ID.Equal(b[i].ID) || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}

// referenceCorpus generates one of the experiment environments'
// corpora (internal/experiments Small and Medium: same generator
// settings, Figure 1 appended) over its ontology collection.
func referenceCorpus(t testing.TB, extra, docs int) (*xmltree.Corpus, *ontology.Collection) {
	t.Helper()
	ont, err := ontology.Generate(ontology.GenConfig{
		Seed: 42, ExtraConcepts: extra, SynonymProb: 0.4,
		MultiParentProb: 0.15, RelationshipsPerDisorder: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := cda.NewGenerator(cda.GenConfig{
		Seed: 42, NumDocuments: docs, ProblemsPerPatient: 4,
		MedicationsPerPatient: 4, ProceduresPerPatient: 2,
	}, ont)
	if err != nil {
		t.Fatal(err)
	}
	corpus := g.GenerateCorpus()
	fig1, err := cda.GenerateFigure1(ont)
	if err != nil {
		t.Fatal(err)
	}
	corpus.Add(fig1)
	return corpus, ontology.MustCollection(ont, ontology.LOINCFragment())
}

// descending re-registers the corpus's documents, under their own IDs,
// in descending ID order — the insertion order the stage must not
// depend on.
func descending(c *xmltree.Corpus) *xmltree.Corpus {
	out := xmltree.NewCorpus()
	docs := c.Docs()
	for i := len(docs) - 1; i >= 0; i-- {
		out.AddExisting(docs[i])
	}
	return out
}

// referenceKeywords samples the keyword space of a builder: every
// stride-th corpus token, ontology-only tokens, two-token phrases taken
// from element texts, an absent keyword and one that tokenizes to
// nothing.
func referenceKeywords(b *Builder, stride int) []string {
	var out []string
	for i, kw := range b.Vocabulary(0) {
		if i%stride == 0 {
			out = append(out, kw)
		}
	}
	for i, kw := range b.Collection().Vocabulary() {
		if i%(4*stride) == 0 {
			out = append(out, kw)
		}
	}
	phrases := 0
	for key := 0; key < len(b.ids) && phrases < 8; key += len(b.ids)/16 + 1 {
		if toks := xmltree.Tokenize(xmltree.TextDescription(b.corpus.NodeAt(b.ids[key]), b.params.Text)); len(toks) >= 2 {
			out = append(out, toks[0]+" "+toks[1])
			phrases++
		}
	}
	// A phrase one of whose terms repeats in the element, so the terms'
	// frequencies there differ.
	for key := 0; key < len(b.ids); key++ {
		if phrase := repeatingPhrase(xmltree.Tokenize(xmltree.TextDescription(b.corpus.NodeAt(b.ids[key]), b.params.Text))); phrase != "" {
			out = append(out, phrase)
			break
		}
	}
	return append(out, "asthma medications", "bronchial structure", "zzznothing", "!!!")
}

// repeatingPhrase is the first two-token phrase of toks made of two
// distinct tokens one of which occurs in toks again ("" if none).
func repeatingPhrase(toks []string) string {
	count := map[string]int{}
	for _, t := range toks {
		count[t]++
	}
	for i := 0; i+1 < len(toks); i++ {
		if toks[i] != toks[i+1] && count[toks[i]]+count[toks[i+1]] > 2 {
			return toks[i] + " " + toks[i+1]
		}
	}
	return ""
}

// tombstones is a delta segment's dead-document predicate over every
// third document.
func tombstones(c *xmltree.Corpus) func(int32) bool {
	dead := map[int32]bool{}
	for i, d := range c.Docs() {
		if i%3 == 0 {
			dead[d.ID] = true
		}
	}
	return func(id int32) bool { return dead[id] }
}

// freshView is a second, unwired view of b's strategy over b's stage.
func freshView(b *Builder) *Builder {
	return &Builder{stage: b.stage, strategy: b.strategy, textIx: b.text.Overlay(nil)}
}

// liveNorm is the calibrator a delta segment installs: the maximum raw
// score over the live (non-tombstoned) containing set.
type liveNorm struct {
	b    *Builder
	dead func(int32) bool
}

func (c liveNorm) KeywordNorm(kw string) float64 { return c.b.RawTextMaxLive(kw, c.dead) }

// The kernel build — positional term frequencies, concept references
// resolved per stage, one merge of key-ordered sequences — is the
// map-based reference posting for posting, float for float: on the
// experiment corpora (one of them registered in descending document
// order), for the four strategies, single terms, phrases and absent
// keywords, full and IR-only builds, on builders wired the way a shard wires them (calibrator) and under a
// global statistics view with a tombstone-aware calibrator — where a
// build pinned to that live state (Pin) must also equal the reference
// with the tombstoned documents' postings dropped.
func TestAssembleMatchesReference(t *testing.T) {
	small, smallColl := referenceCorpus(t, 300, 40)
	medium, mediumColl := referenceCorpus(t, 2000, 300)
	corpora := []struct {
		name   string
		corpus *xmltree.Corpus
		coll   *ontology.Collection
		stride int
	}{
		{"small", small, smallColl, 6},
		{"small-descending", descending(small), smallColl, 6},
		{"medium", medium, mediumColl, 90},
	}
	for _, cp := range corpora {
		params := DefaultParams()
		side := ontoscore.NewSide(cp.coll, params.Onto)
		builders := NewBuilders(cp.corpus, side, ontoscore.Strategies(), params)
		keywords := referenceKeywords(builders[ontoscore.StrategyNone], cp.stride)
		ref := newReference(cp.corpus, params.Text)
		dead := tombstones(cp.corpus)
		global := builders[ontoscore.StrategyNone].LocalTextStats()
		global.N += 97
		global.TotalLen += 1234
		for _, st := range ontoscore.Strategies() {
			// Each wiring is a builder and the statistics its text
			// scores read (nil: the corpus's own).
			wirings := map[string]func() (*Builder, ir.StatsView){
				"plain": func() (*Builder, ir.StatsView) { return builders[st], nil },
				"shard": func() (*Builder, ir.StatsView) {
					b := freshView(builders[st])
					b.SetCalibrator(constCalibrator(17.5))
					return b, nil
				},
				"delta": func() (*Builder, ir.StatsView) {
					b := freshView(builders[st])
					b.SetGlobalTextStats(global)
					b.SetCalibrator(liveNorm{b: b, dead: dead})
					return b, global
				},
			}
			for wiring, mk := range wirings {
				b, stats := mk()
				name := fmt.Sprintf("%s/%s/%s", cp.name, st, wiring)
				for _, kw := range keywords {
					if got, want := b.BuildKeyword(kw), ref.build(b, stats, kw, false); !sameList(b, got, want) {
						t.Fatalf("%s %q: kernel build (%d postings) differs from reference (%d)", name, kw, len(got), len(want))
					}
					if got, want := b.BuildKeywordIRCtx(context.Background(), kw), ref.build(b, stats, kw, true); !sameList(b, got, want) {
						t.Fatalf("%s %q: IR-only build differs from reference", name, kw)
					}
					if !encodedAsBuilt(b, kw) {
						t.Fatalf("%s %q: CompactKeyword differs from the built list's encoding", name, kw)
					}
					if got, want := b.RawTextMaxLive(kw, dead), ref.rawTextMaxLive(b, stats, kw, dead); got != want {
						t.Fatalf("%s %q: RawTextMaxLive %v, reference %v", name, kw, got, want)
					}
					if wiring != "delta" {
						continue
					}
					// A build pinned to the same live state drops the
					// tombstoned documents in its one pass.
					p := builders[st].Pin(Live{Stats: global, Dead: dead})
					if got, want := p.BuildKeyword(kw), liveOnly(ref.build(b, stats, kw, false), dead); !sameList(p, got, want) {
						t.Fatalf("%s %q: pinned build (%d postings) differs from reference (%d)", name, kw, len(got), len(want))
					}
					if got, want := p.BuildKeywordIRCtx(context.Background(), kw), liveOnly(ref.build(b, stats, kw, true), dead); !sameList(p, got, want) {
						t.Fatalf("%s %q: pinned IR-only build differs from reference", name, kw)
					}
					if !encodedAsBuilt(p, kw) {
						t.Fatalf("%s %q: pinned CompactKeyword differs from the built list's encoding", name, kw)
					}
				}
			}
		}
	}
}

// encodedAsBuilt reports whether CompactKeyword, which encodes the
// postings as they are emitted, yields the encoding of the list
// BuildKeyword returns.
func encodedAsBuilt(b *Builder, kw string) bool {
	c := b.CompactKeyword(context.Background(), kw)
	want := Compact(b.BuildKeyword(kw), b.IDs())
	return c.Len() == want.Len() && (c == nil || bytes.Equal(c.AppendSegment(nil), want.AppendSegment(nil)))
}

// Builder.Build — the Table III path, OntoScore maps built up front —
// assembles through the same kernel and lands on the same lists.
func TestBuildMatchesReference(t *testing.T) {
	corpus, coll := referenceCorpus(t, 300, 40)
	b := NewMultiBuilder(descending(corpus), coll, ontoscore.StrategyRelationships, DefaultParams())
	vocab := referenceKeywords(b, 3)
	ix, _, err := b.Build(vocab)
	if err != nil {
		t.Fatal(err)
	}
	ref := newReference(b.corpus, b.params.Text)
	for _, kw := range vocab {
		var got []Entry
		if c := ix.Compact(kw); c != nil {
			got = c.Entries()
		}
		if !sameEntries(got, ref.build(b, nil, kw, false)) {
			t.Fatalf("%q: Build list differs from reference", kw)
		}
	}
}

// One ontology side serves the base stage, a shard's stage and a delta
// state at once: cold keywords built concurrently on all three (run
// under -race) equal the same builds done one at a time, and every
// stage reads the side's computers rather than building its own.
func TestSharedSideConcurrentBuilds(t *testing.T) {
	corpus, coll := referenceCorpus(t, 300, 40)
	params := DefaultParams()
	side := ontoscore.NewSide(coll, params.Onto)
	shardView, deltaDocs := xmltree.NewCorpus(), xmltree.NewCorpus()
	for i, d := range corpus.Docs() {
		if i%2 == 0 {
			shardView.AddExisting(d)
		}
		if i%10 == 0 {
			deltaDocs.AddExisting(d)
		}
	}
	stages := []map[ontoscore.Strategy]*Builder{
		NewBuilders(corpus, side, ontoscore.Strategies(), params),
		NewBuilders(shardView, side, ontoscore.Strategies(), params),
		NewBuilders(deltaDocs, side, ontoscore.Strategies(), params),
	}
	for _, bs := range stages {
		for _, b := range bs {
			for _, ont := range coll.Ontologies() {
				if b.Computer(ont.SystemID) != side.Computer(ont.SystemID) {
					t.Fatalf("a stage holds a computer of its own for %s", ont.SystemID)
				}
			}
		}
	}
	keywords := referenceKeywords(stages[0][ontoscore.StrategyNone], 8)
	type job struct {
		stage int
		st    ontoscore.Strategy
		kw    string
	}
	want := map[job]List{}
	var jobs []job
	for i, bs := range stages {
		for st, b := range bs {
			for _, kw := range keywords {
				j := job{i, st, kw}
				want[j] = b.BuildKeyword(kw)
				jobs = append(jobs, j)
			}
		}
	}
	got := make([]List, len(jobs))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(jobs); i += 4 {
				j := jobs[i]
				got[i] = stages[j.stage][j.st].BuildKeyword(j.kw)
			}
		}(w)
	}
	wg.Wait()
	for i, j := range jobs {
		if !slices.Equal(got[i], want[j]) {
			t.Fatalf("stage %d %s %q: concurrent build differs from serial", j.stage, j.st, j.kw)
		}
	}
}
