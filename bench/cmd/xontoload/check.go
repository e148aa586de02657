package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/bench/trace"
	"repro/bench/workload"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
	"repro/internal/xmltree"
)

// checkN is how many leading requests of a stream have their answers
// verified (and, at seed 1 on the full corpus, pinned by golden.json).
const checkN = 200

// hit is the part of one search result the benchmark verifies.
type hit struct {
	ID       string  `json:"id"`
	Score    float64 `json:"score"`
	Document string  `json:"document"`
}

// searchBody is the part of a /search response the harness reads.
type searchBody struct {
	Results []hit `json:"results"`
	Pruning struct {
		PostingsScored  int64 `json:"postings_scored"`
		DocsSkipped     int64 `json:"docs_skipped"`
		BlocksSkipped   int64 `json:"blocks_skipped"`
		EarlyTerminated bool  `json:"early_terminated"`
	} `json:"pruning"`
	Timing struct {
		ParseUS   int64 `json:"parse_us"`
		SearchUS  int64 `json:"search_us"`
		HydrateUS int64 `json:"hydrate_us"`
		TotalUS   int64 `json:"total_us"`
	} `json:"timing"`
}

func parseSearch(body []byte) (*searchBody, error) {
	var sb searchBody
	if err := json.Unmarshal(body, &sb); err != nil {
		return nil, fmt.Errorf("search response: %w", err)
	}
	return &sb, nil
}

// loadCollection reads ontology.json the way xontoserve does: wrapped
// with the built-in LOINC fragment.
func loadCollection(dataDir string) (*ontology.Collection, error) {
	f, err := os.Open(filepath.Join(dataDir, "ontology.json"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ont, err := ontology.Load(f)
	if err != nil {
		return nil, fmt.Errorf("load ontology: %w", err)
	}
	return ontology.MustCollection(ont, ontology.LOINCFragment()), nil
}

// ingestConfig is xontoserve's ingestion of a data directory (which
// fixes document order, hence Dewey IDs), with the pipeline's
// by-products sent to scratch instead of into the data directory.
func ingestConfig(dataDir, scratch string) ingest.Config {
	return ingest.Config{
		SourceDir:     filepath.Join(dataDir, "docs"),
		QuarantineDir: filepath.Join(scratch, "quarantine"),
		ManifestPath:  filepath.Join(scratch, "ingest.manifest"),
		ValidateCDA:   true,
		Logf:          func(string, ...any) {},
	}
}

// oracle answers requests in-process with the same per-strategy
// systems xontoserve builds, constructed on first use. It is also the
// traced replay's view of the corpus, so it records a span around each
// piece of set-up it does.
type oracle struct {
	rec     *trace.Recorder
	corpus  *xmltree.Corpus
	coll    *ontology.Collection
	systems map[string]*core.System
	// How long ingest.Run and each strategy's core.NewMulti took.
	ingestTook time.Duration
	newTook    map[string]time.Duration
}

func newOracle(ctx context.Context, dataDir, scratch string) (*oracle, error) {
	coll, err := loadCollection(dataDir)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	o := &oracle{rec: trace.New(), coll: coll, systems: map[string]*core.System{}, newTook: map[string]time.Duration{}}
	id := o.rec.Start("ingest.Run", 0, 0)
	res, err := ingest.Run(ctx, ingestConfig(dataDir, scratch))
	o.ingestTook = o.rec.End(id)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	o.corpus = res.Corpus
	return o, nil
}

func (o *oracle) system(strategy string) (*core.System, error) {
	if strategy == "" {
		strategy = ontoscore.StrategyRelationships.String()
	}
	if sys, ok := o.systems[strategy]; ok {
		return sys, nil
	}
	st, err := ontoscore.ParseStrategy(strategy)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Strategy = st
	id := o.rec.Start("core.New", 0, 0)
	sys := core.NewMulti(o.corpus, o.coll, cfg)
	o.newTook[strategy] = o.rec.End(id)
	o.systems[strategy] = sys
	return sys, nil
}

func (o *oracle) answer(ctx context.Context, rq workload.Request) ([]hit, error) {
	sys, err := o.system(rq.Strategy)
	if err != nil {
		return nil, err
	}
	resp, err := sys.Query(ctx, core.SearchRequest{Query: rq.Query, K: rq.K, Offset: rq.Offset})
	if err != nil {
		return nil, err
	}
	hits := make([]hit, len(resp.Results))
	for i, r := range resp.Results {
		hits[i] = hit{ID: r.Root.String(), Score: r.Score, Document: r.Document}
	}
	return hits, nil
}

// sameHits compares ordered result IDs and scores to 1e-9.
func sameHits(got, want []hit) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Abs(got[i].Score-want[i].Score) > 1e-9 {
			return fmt.Errorf("result %d is %s %.12g, want %s %.12g", i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
		}
	}
	return nil
}

// digest condenses ordered IDs and scores (to 1e-9) into 16 hex digits.
func digest(hits []hit) string {
	h := sha256.New()
	for _, x := range hits {
		fmt.Fprintf(h, "%s\t%.9f\n", x.ID, x.Score)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// golden pins the answers to the first checkN requests of the hot,
// merge and cold streams at seed 1 on the full corpus. The oracle
// shares code with the server, so it cannot notice a ranking change
// that moves both; this file can.
type golden struct {
	Seed    int64               `json:"seed"`
	Docs    int                 `json:"docs"`
	Digests map[string][]string `json:"digests"`
}

const goldenPath = "bench/golden.json"

func loadGolden(root string) (*golden, error) {
	b, err := os.ReadFile(filepath.Join(root, goldenPath))
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	return &g, nil
}

// verify checks the retained response bodies of a stream prefix against
// the oracle, and against golden when g is non-nil. It returns how many
// answers were checked and a description of each wrong one.
func verify(ctx context.Context, o *oracle, g *golden, wl string, reqs []workload.Request, bodies [][]byte) (checked int, wrong []string) {
	for i, body := range bodies {
		if body == nil {
			continue // the request itself failed and is already counted
		}
		checked++
		sb, err := parseSearch(body)
		if err != nil {
			wrong = append(wrong, fmt.Sprintf("%s[%d] %s: %v", wl, i, reqs[i].URI(), err))
			continue
		}
		want, err := o.answer(ctx, reqs[i])
		if err != nil {
			wrong = append(wrong, fmt.Sprintf("%s[%d] %s: oracle: %v", wl, i, reqs[i].URI(), err))
			continue
		}
		if err := sameHits(sb.Results, want); err != nil {
			wrong = append(wrong, fmt.Sprintf("%s[%d] %s: server vs in-process: %v", wl, i, reqs[i].URI(), err))
			continue
		}
		if g != nil && i < len(g.Digests[wl]) && digest(sb.Results) != g.Digests[wl][i] {
			wrong = append(wrong, fmt.Sprintf("%s[%d] %s: digest %s, golden %s", wl, i, reqs[i].URI(), digest(sb.Results), g.Digests[wl][i]))
		}
	}
	return checked, wrong
}
