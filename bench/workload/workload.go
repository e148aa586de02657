// Package workload generates, from one seed, everything the benchmark
// feeds to xontoserve: the data directory (ontology + CDA documents),
// the four request streams, and the live documents the ingest workload
// writes. The same seed always yields the same bytes; the server only
// ever sees the generated inputs, never the seed.
package workload

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	xontorank "repro"
	"repro/internal/xmltree"
)

// Size is the generated corpus size: patient records (Figure 1 is
// added on top) and synthetic concepts beyond the curated cores.
type Size struct {
	Docs     int
	Concepts int
}

var (
	// Full is the benchmark corpus. Set-up is quadratic in Docs at the
	// seed commit (3 s at 800, 13 s at 2 000 on the 2-core build box)
	// and every run sets up three times inside the driver's time cap,
	// which is what fixes the size here; see bench/README.md.
	Full = Size{Docs: 800, Concepts: 5000}
	// Quick is the smoke-test corpus.
	Quick = Size{Docs: 200, Concepts: 1000}
)

// Traffic constants, never tuned at run time. Conns is the build
// machine's nproc. The open-loop rates are about a fifth and a quarter
// of the closed-loop capacity measured there at Full size (7 800 and
// 1 150 req/s): low enough that latency follows service time rather
// than queue length, which on a shared box would amplify every
// slowdown from outside into the numbers.
const (
	Conns = 2

	HotPool    = 200 // distinct queries, all fit the 1 024-entry result cache
	HotZipfS   = 1.1
	HotRate    = 1500.0 // req/s, open loop
	MergeRate  = 300.0  // req/s, open loop
	MergeVocab = 1500   // terms at most, well under the 4 096-entry keyword cache

	// WriteIntervalMS paces the ingest writer: one admin op per interval.
	WriteIntervalMS = 500
)

// Names lists the workloads in run order.
var Names = []string{"hot", "merge", "cold", "ingest"}

// Request is one /search call.
type Request struct {
	Query    string
	Strategy string // "" = server default (Relationships)
	K        int
	Offset   int
}

// URI renders the request target.
func (r Request) URI() string {
	var b strings.Builder
	b.WriteString("/search?q=")
	b.WriteString(url.QueryEscape(r.Query))
	b.WriteString("&k=")
	b.WriteString(strconv.Itoa(r.K))
	if r.Offset > 0 {
		b.WriteString("&offset=")
		b.WriteString(strconv.Itoa(r.Offset))
	}
	if r.Strategy != "" {
		b.WriteString("&strategy=")
		b.WriteString(r.Strategy)
	}
	return b.String()
}

// Data is one generated corpus plus the term statistics the stream
// generators sample from.
type Data struct {
	Seed   int64
	Size   Size
	Ont    *xontorank.Ontology
	Corpus *xontorank.Corpus

	// docTerms[i] holds the distinct content tokens (length ≥ 3, from
	// element text and displayName values) of document i, sorted.
	docTerms [][]string
	// Tokens is every distinct content token of the documents and of
	// the ontology's concept terms, sorted.
	Tokens []string
	// vocab is the MergeVocab most frequent tokens; mergeTerms[i] is
	// docTerms[i] restricted to it.
	vocab      []string
	mergeTerms [][]string
}

func ontologyConfig(seed int64, concepts int) xontorank.OntologyConfig {
	return xontorank.OntologyConfig{Seed: seed, ExtraConcepts: concepts, SynonymProb: 0.4,
		MultiParentProb: 0.15, RelationshipsPerDisorder: 2}
}

func corpusConfig(seed int64, docs int) xontorank.CorpusConfig {
	return xontorank.CorpusConfig{Seed: seed, NumDocuments: docs, ProblemsPerPatient: 4,
		MedicationsPerPatient: 4, ProceduresPerPatient: 2}
}

// Generate builds the corpus for a seed with the same generator
// settings as `xontorank gen`.
func Generate(seed int64, size Size) (*Data, error) {
	ont, err := xontorank.GenerateOntology(ontologyConfig(seed, size.Concepts))
	if err != nil {
		return nil, fmt.Errorf("generate ontology: %w", err)
	}
	corpus, err := xontorank.GenerateCorpus(corpusConfig(seed, size.Docs), ont)
	if err != nil {
		return nil, fmt.Errorf("generate corpus: %w", err)
	}
	fig1, err := xontorank.GenerateFigureOne(ont)
	if err != nil {
		return nil, fmt.Errorf("generate figure 1: %w", err)
	}
	corpus.Add(fig1)

	d := &Data{Seed: seed, Size: size, Ont: ont, Corpus: corpus}
	df := map[string]int{}
	for _, doc := range corpus.Docs() {
		terms := contentTokens(doc)
		d.docTerms = append(d.docTerms, terms)
		for _, t := range terms {
			df[t]++
		}
	}
	byDF := make([]string, 0, len(df))
	for t := range df {
		byDF = append(byDF, t)
	}
	sort.Strings(byDF)
	// The cold sweep also asks for what only the ontology knows: a term
	// of a concept no document spells out still finds the documents
	// that reference a related concept, which is the paper's point.
	all := map[string]bool{}
	for _, t := range byDF {
		all[t] = true
	}
	for _, id := range ont.Concepts() {
		for _, term := range ont.Concept(id).Terms() {
			for _, t := range xmltree.Tokenize(term) {
				if len(t) >= 3 {
					all[t] = true
				}
			}
		}
	}
	for t := range all {
		d.Tokens = append(d.Tokens, t)
	}
	sort.Strings(d.Tokens)

	sort.SliceStable(byDF, func(i, j int) bool { return df[byDF[i]] > df[byDF[j]] })
	if len(byDF) > MergeVocab {
		byDF = byDF[:MergeVocab]
	}
	inVocab := make(map[string]bool, len(byDF))
	for _, t := range byDF {
		inVocab[t] = true
	}
	d.vocab = byDF
	for _, terms := range d.docTerms {
		var mt []string
		for _, t := range terms {
			if inVocab[t] {
				mt = append(mt, t)
			}
		}
		d.mergeTerms = append(d.mergeTerms, mt)
	}
	return d, nil
}

// contentTokens returns the distinct clinical-language tokens of one
// document: what a user would type, not tag or attribute names.
func contentTokens(doc *xontorank.Document) []string {
	seen := map[string]bool{}
	add := func(s string) {
		for _, t := range xmltree.Tokenize(s) {
			if len(t) >= 3 {
				seen[t] = true
			}
		}
	}
	for _, n := range doc.Nodes() {
		add(n.Text)
		if v, ok := n.Attr("displayName"); ok {
			add(v)
		}
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// WriteDir writes the data directory xontoserve -data expects:
// ontology.json and docs/<name>.xml.
func (d *Data) WriteDir(dir string) error {
	if err := os.MkdirAll(filepath.Join(dir, "docs"), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := d.Ont.Save(&buf); err != nil {
		return fmt.Errorf("save ontology: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ontology.json"), buf.Bytes(), 0o644); err != nil {
		return err
	}
	for _, doc := range d.Corpus.Docs() {
		buf.Reset()
		if err := xmltree.WriteXML(&buf, doc.Root); err != nil {
			return fmt.Errorf("serialize %s: %w", doc.Name, err)
		}
		if err := os.WriteFile(filepath.Join(dir, "docs", doc.Name+".xml"), buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// rng derives an independent generator per stream so adding a stream
// never shifts another one.
func (d *Data) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(d.Seed*1_000_003 + stream))
}

// pick draws n distinct terms of one document (fewer when it has fewer).
func pick(r *rand.Rand, terms []string, n int) []string {
	if n > len(terms) {
		n = len(terms)
	}
	idx := r.Perm(len(terms))[:n]
	out := make([]string, n)
	for i, j := range idx {
		out[i] = terms[j]
	}
	return out
}

// HotWarm returns the pool of HotPool distinct 1–3 keyword queries,
// most popular first; each is built from terms of one document so the
// conjunction is non-empty.
func (d *Data) HotWarm() []Request {
	r := d.rng(1)
	pool := make([]Request, 0, HotPool)
	seen := map[string]bool{}
	for len(pool) < HotPool {
		terms := d.docTerms[r.Intn(len(d.docTerms))]
		q := strings.Join(pick(r, terms, 1+r.Intn(3)), " ")
		if q == "" || seen[q] {
			continue
		}
		seen[q] = true
		pool = append(pool, Request{Query: q, K: 10})
	}
	return pool
}

// Hot returns n requests drawn from the pool with Zipf popularity.
func (d *Data) Hot(n int) []Request {
	pool := d.HotWarm()
	r := d.rng(6)
	z := rand.NewZipf(r, HotZipfS, 1, HotPool-1)
	out := make([]Request, n)
	for i := range out {
		out[i] = pool[z.Uint64()]
	}
	return out
}

// Merge returns n requests of 2–3 co-occurring vocabulary terms of one
// sampled document: k=10 70 % / k=100 30 %, 10 % on a deep page.
func (d *Data) Merge(n int) []Request { return d.merge(d.rng(2), n) }

func (d *Data) merge(r *rand.Rand, n int) []Request {
	out := make([]Request, 0, n)
	for len(out) < n {
		terms := d.mergeTerms[r.Intn(len(d.mergeTerms))]
		if len(terms) < 2 {
			continue
		}
		rq := Request{Query: strings.Join(pick(r, terms, 2+r.Intn(2)), " "), K: 10}
		if r.Float64() < 0.3 {
			rq.K = 100
		}
		if r.Float64() < 0.1 {
			rq.Offset = []int{50, 200}[r.Intn(2)]
		}
		out = append(out, rq)
	}
	return out
}

// MergeWarm returns one single-keyword request per vocabulary term, so
// the keyword cache is full before the merge workload is measured.
func (d *Data) MergeWarm() []Request {
	out := make([]Request, len(d.vocab))
	for i, t := range d.vocab {
		out[i] = Request{Query: t, K: 1}
	}
	return out
}

// Strategies is the interleave order of the cold sweep: the paper's
// column order.
var Strategies = func() []string {
	var names []string
	for _, st := range xontorank.Strategies() {
		names = append(names, st.String())
	}
	return names
}()

// Cold returns the sweep: every token of Tokens, shuffled by the seed,
// once per strategy, single keyword, k=10.
func (d *Data) Cold() []Request {
	r := d.rng(3)
	toks := append([]string(nil), d.Tokens...)
	r.Shuffle(len(toks), func(i, j int) { toks[i], toks[j] = toks[j], toks[i] })
	out := make([]Request, 0, len(toks)*len(Strategies))
	for _, t := range toks {
		for _, st := range Strategies {
			out = append(out, Request{Query: t, Strategy: st, K: 10})
		}
	}
	return out
}

// IngestReads is the merge mix under its own stream, read beside the
// writer.
func (d *Data) IngestReads(n int) []Request { return d.merge(d.rng(4), n) }

// WriteOp is one admin mutation of the ingest workload.
type WriteOp struct {
	Delete bool
	Name   string // document name (?name=)
	Body   []byte // XML, empty for a delete
	// Token is unique to this document version: after a put it must
	// find Name, after a delete it must find nothing.
	Token string
}

// Writes returns n admin operations cycling POST new, POST new, POST
// replace-a-base-document, POST new, DELETE the oldest surviving add.
func (d *Data) Writes(n int) ([]WriteOp, error) {
	r := d.rng(5)
	gen, err := xontorank.GenerateCorpus(corpusConfig(d.Seed+7919, n), d.Ont)
	if err != nil {
		return nil, fmt.Errorf("generate live documents: %w", err)
	}
	live := gen.Docs()
	base := d.Corpus.Docs()
	var added []WriteOp
	ops := make([]WriteOp, 0, n)
	for i := 0; i < n; i++ {
		switch i % 5 {
		case 4:
			victim := added[0]
			added = added[1:]
			ops = append(ops, WriteOp{Delete: true, Name: victim.Name, Token: victim.Token})
		default:
			op := WriteOp{Name: fmt.Sprintf("live-%05d", i), Token: fmt.Sprintf("zq%dw%d", d.Seed, i)}
			if i%5 == 2 {
				// Figure 1 is the last document; leave it alone.
				op.Name = base[r.Intn(len(base)-1)].Name
			}
			body, err := tagged(live[i], op.Token)
			if err != nil {
				return nil, err
			}
			op.Body = body
			if i%5 != 2 {
				added = append(added, op)
			}
			ops = append(ops, op)
		}
	}
	return ops, nil
}

// tagged serializes doc with token appended to its first text node.
func tagged(doc *xontorank.Document, token string) ([]byte, error) {
	for _, n := range doc.Nodes() {
		if n.Text != "" {
			n.Text += " " + token
			var buf bytes.Buffer
			if err := xmltree.WriteXML(&buf, doc.Root); err != nil {
				return nil, fmt.Errorf("serialize live document: %w", err)
			}
			return buf.Bytes(), nil
		}
	}
	return nil, fmt.Errorf("live document %s has no text node to tag", doc.Name)
}
