// Package experiments regenerates every table and figure of the
// paper's evaluation (Section VII): Table I (relevant results per query
// under the four approaches), Table II (normalized top-k Kendall tau
// between their rankings), Table III (per-keyword XOnto-DIL creation
// cost), and Figure 11 (query execution time vs. keyword count) —
// plus ablations for the design choices DESIGN.md calls out.
//
// The corpus and ontology are synthetic but deterministic (see
// DESIGN.md's substitution table); absolute numbers differ from the
// paper's 2004-era hardware, the comparative shape is what is
// reproduced.
package experiments

import (
	"context"
	"fmt"

	"repro/internal/cda"
	"repro/internal/core"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
	"repro/internal/query"
	"repro/internal/relevance"
	"repro/internal/xmltree"
)

// Scale sizes an experiment environment.
type Scale struct {
	Name          string
	Seed          int64
	OntologyExtra int // synthetic concepts beyond the curated cores
	Documents     int // synthetic patient records
}

// Small is the test/CI scale; Medium approximates the paper's corpus
// density at laptop-friendly size.
var (
	Small  = Scale{Name: "small", Seed: 42, OntologyExtra: 300, Documents: 40}
	Medium = Scale{Name: "medium", Seed: 42, OntologyExtra: 2000, Documents: 300}
)

// Env is a prepared experiment environment: one corpus, one ontology,
// and one system per approach.
type Env struct {
	Scale   Scale
	Ont     *ontology.Ontology
	Corpus  *xmltree.Corpus
	Systems map[ontoscore.Strategy]*core.System
	Oracle  *relevance.Oracle
}

// NewEnv generates the data and builds the four systems (without the
// bulk index; experiments build indexes where they need them).
func NewEnv(scale Scale) (*Env, error) {
	return newEnvWithDensity(scale, 2)
}

func newEnvWithDensity(scale Scale, relationshipsPerDisorder float64) (*Env, error) {
	ont, err := ontology.Generate(ontology.GenConfig{
		Seed:                     scale.Seed,
		ExtraConcepts:            scale.OntologyExtra,
		SynonymProb:              0.4,
		MultiParentProb:          0.15,
		RelationshipsPerDisorder: relationshipsPerDisorder,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: ontology: %w", err)
	}
	gen, err := cda.NewGenerator(cda.GenConfig{
		Seed:                  scale.Seed,
		NumDocuments:          scale.Documents,
		ProblemsPerPatient:    4,
		MedicationsPerPatient: 4,
		ProceduresPerPatient:  2,
	}, ont)
	if err != nil {
		return nil, fmt.Errorf("experiments: corpus: %w", err)
	}
	corpus := gen.GenerateCorpus()
	fig1, err := cda.GenerateFigure1(ont)
	if err != nil {
		return nil, fmt.Errorf("experiments: figure 1: %w", err)
	}
	corpus.Add(fig1)

	cfg := core.DefaultConfig()
	cfg.VocabularyHops = 2
	return &Env{
		Scale:   scale,
		Ont:     ont,
		Corpus:  corpus,
		Systems: core.NewSystems(corpus, ontoscore.NewSide(ontology.MustCollection(ont), cfg.DIL.Onto), cfg),
		Oracle:  relevance.NewOracle(ont),
	}, nil
}

// Table1Queries are the evaluation workload mirroring the paper's
// Table I: two-keyword clinical queries from the pediatric-cardiology
// domain, including co-occurring terms (answerable by the baseline),
// ontology-only-reachable pairs, the acetaminophen context-mismatch
// case, and the intro's bronchial-structure example.
var Table1Queries = []string{
	`"cardiac arrest" epinephrine`,
	`coarctation prostaglandin`,
	`"neonatal cyanosis" oxygen`,
	`carbapenem endocarditis`,
	`ibuprofen "patent ductus arteriosus"`,
	`"supraventricular arrhythmia" adenosine`,
	`"pericardial effusion" furosemide`,
	`"regurgitant flow" "mitral valve"`,
	`amiodarone "ventricular tachycardia"`,
	`"supraventricular arrhythmia" acetaminophen`,
	`"bronchial structure" theophylline`,
}

// Table2Queries are the 20 two-keyword queries of the Kendall tau
// comparison. They pair curated clinical terms so every approach
// produces rankings to compare.
var Table2Queries = []string{
	`asthma theophylline`,
	`asthma albuterol`,
	`bronchitis albuterol`,
	`arrhythmia amiodarone`,
	`arrhythmia adenosine`,
	`tachycardia digoxin`,
	`endocarditis meropenem`,
	`fever acetaminophen`,
	`pain ibuprofen`,
	`pain aspirin`,
	`arrest epinephrine`,
	`effusion furosemide`,
	`cyanosis oxygen`,
	`coarctation aorta`,
	`regurgitation valve`,
	`medications asthma`,
	`heart arrest`,
	`atrium arrhythmia`,
	`ventricle tachycardia`,
	`aspirin kawasaki`,
}

// QueriesWithKeywordCount builds Figure 11's workload: deterministic
// queries with exactly n keywords drawn from the curated clinical
// vocabulary.
func QueriesWithKeywordCount(n, count int) []string {
	pool := []string{
		"asthma", "medications", "theophylline", "albuterol",
		"arrhythmia", "amiodarone", "cardiac", "arrest", "epinephrine",
		"fever", "pain", "aspirin", "heart", "atrium", "tachycardia",
		"effusion", "furosemide", "oxygen", "aorta", "valve",
	}
	var out []string
	for i := 0; i < count; i++ {
		q := ""
		// Stride 3 is coprime with the pool size, so the n keywords of
		// one query are distinct (n <= 6).
		for j := 0; j < n; j++ {
			if j > 0 {
				q += " "
			}
			q += pool[(i+j*3)%len(pool)]
		}
		out = append(out, q)
	}
	return out
}

// searchKeywords answers a pre-parsed keyword query through the
// consolidated Query API (the experiments never cancel, so the only
// possible error — the context's — cannot occur).
func searchKeywords(sys *core.System, keywords []query.Keyword, k int) []core.Result {
	resp, err := sys.Query(context.Background(), core.SearchRequest{Keywords: keywords, K: k})
	if err != nil {
		return nil
	}
	return resp.Results
}
