package experiments

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/ontoscore"
	"repro/internal/query"
)

var (
	envOnce sync.Once
	envInst *Env
	envErr  error
)

// sharedEnv builds the Small environment once for the whole package —
// the setup dominates test time otherwise.
func sharedEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		envInst, envErr = NewEnv(Small)
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envInst
}

func TestTable1Shape(t *testing.T) {
	e := sharedEnv(t)
	res := e.Table1()
	if len(res.Rows) != len(Table1Queries) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The paper's headline findings:
	// (1) ontology-enabled approaches find at least as much relevant
	// material on average as the baseline;
	avg := res.Averages
	if avg[ontoscore.StrategyRelationships] < avg[ontoscore.StrategyNone] {
		t.Errorf("Relationships average %.2f below XRANK %.2f",
			avg[ontoscore.StrategyRelationships], avg[ontoscore.StrategyNone])
	}
	if avg[ontoscore.StrategyGraph] < avg[ontoscore.StrategyNone] {
		t.Errorf("Graph average %.2f below XRANK %.2f",
			avg[ontoscore.StrategyGraph], avg[ontoscore.StrategyNone])
	}
	// (2) the intro query: XRANK finds nothing, ontology approaches do.
	var intro Table1Row
	for _, row := range res.Rows {
		if strings.Contains(row.Query, "bronchial structure") {
			intro = row
		}
	}
	if intro.Counts[ontoscore.StrategyNone] != 0 {
		t.Errorf("XRANK found %d results for the intro query", intro.Counts[ontoscore.StrategyNone])
	}
	if intro.Counts[ontoscore.StrategyRelationships] == 0 {
		t.Error("Relationships found nothing for the intro query")
	}
	// (3) the context-mismatch query scores 0 for the ontology-assisted
	// algorithms (the acetaminophen/aspirin confusion).
	var mismatch Table1Row
	for _, row := range res.Rows {
		if strings.Contains(row.Query, "acetaminophen") {
			mismatch = row
		}
	}
	for _, s := range []ontoscore.Strategy{ontoscore.StrategyGraph, ontoscore.StrategyTaxonomy, ontoscore.StrategyRelationships} {
		if mismatch.Counts[s] != 0 {
			t.Errorf("%v marked %d relevant for the context-mismatch query", s, mismatch.Counts[s])
		}
	}
	// Rendering includes every query and the average row.
	out := res.String()
	if !strings.Contains(out, "AVERAGE") || !strings.Contains(out, "bronchial structure") {
		t.Errorf("rendering incomplete:\n%s", out)
	}
}

func TestTable2Shape(t *testing.T) {
	e := sharedEnv(t)
	res := e.Table2()
	strategies := ontoscore.Strategies()
	for _, a := range strategies {
		// Diagonal is zero; matrix symmetric; values within [0,1].
		if res.Distance[a][a] > 1e-9 {
			t.Errorf("self distance %v = %f", a, res.Distance[a][a])
		}
		for _, b := range strategies {
			d := res.Distance[a][b]
			if d < 0 || d > 1+1e-9 {
				t.Errorf("distance %v-%v = %f out of range", a, b, d)
			}
			if diff := d - res.Distance[b][a]; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("asymmetry %v-%v", a, b)
			}
		}
	}
	// Robust shape properties (see EXPERIMENTS.md for the discussion of
	// the paper's d(Taxonomy,Relationships) claim and its dependence on
	// relationship in-degrees):
	// (1) Taxonomy ranks closest to the XRANK baseline — both are
	// anchored on literal covers;
	// (2) Relationships is closer to Graph than Taxonomy is — it shares
	// Graph's cross-relationship reach.
	xt := res.Distance[ontoscore.StrategyNone][ontoscore.StrategyTaxonomy]
	xg := res.Distance[ontoscore.StrategyNone][ontoscore.StrategyGraph]
	if xt >= xg {
		t.Errorf("expected d(XRANK,Tax)=%.3f < d(XRANK,Graph)=%.3f", xt, xg)
	}
	graphRel := res.Distance[ontoscore.StrategyGraph][ontoscore.StrategyRelationships]
	graphTax := res.Distance[ontoscore.StrategyGraph][ontoscore.StrategyTaxonomy]
	if graphRel >= graphTax {
		t.Errorf("expected d(Graph,Rel)=%.3f < d(Graph,Tax)=%.3f", graphRel, graphTax)
	}
	if !strings.Contains(res.String(), "TABLE II") {
		t.Error("rendering broken")
	}
}

func TestTable3Shape(t *testing.T) {
	e := sharedEnv(t)
	res, err := e.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byStrategy := map[ontoscore.Strategy]Table3Row{}
	for _, r := range res.Rows {
		byStrategy[r.Strategy] = r
		if r.Keywords == 0 {
			t.Errorf("%v indexed no keywords", r.Strategy)
		}
	}
	// XRANK has no OntoScore entries and the fewest postings; the
	// ontology-enabled approaches add postings.
	if byStrategy[ontoscore.StrategyNone].OntoMapEntries != 0 {
		t.Error("XRANK has OntoScore entries")
	}
	if byStrategy[ontoscore.StrategyGraph].TotalPostings <= byStrategy[ontoscore.StrategyNone].TotalPostings {
		t.Errorf("Graph postings %d not above XRANK %d",
			byStrategy[ontoscore.StrategyGraph].TotalPostings,
			byStrategy[ontoscore.StrategyNone].TotalPostings)
	}
	if byStrategy[ontoscore.StrategyRelationships].TotalPostings < byStrategy[ontoscore.StrategyTaxonomy].TotalPostings {
		t.Error("Relationships postings below Taxonomy")
	}
	if !strings.Contains(res.String(), "TABLE III") {
		t.Error("rendering broken")
	}
}

func TestFigure11Shape(t *testing.T) {
	e := sharedEnv(t)
	res, err := e.Figure11(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4*len(res.Counts) {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.AvgTime <= 0 {
			t.Errorf("non-positive time for %v/%d keywords", p.Strategy, p.Keywords)
		}
	}
	if !strings.Contains(res.String(), "FIGURE 11") {
		t.Error("rendering broken")
	}
}

func TestAblations(t *testing.T) {
	e := sharedEnv(t)
	merged := e.MergedBFSAblation(AblationKeywords[:4], 1)
	if len(merged) == 0 {
		t.Fatal("no merged-BFS rows")
	}
	ths := e.ThresholdAblation(AblationKeywords[:4], []float64{0.01, 0.1, 0.3})
	if len(ths) != 3 {
		t.Fatalf("threshold rows = %d", len(ths))
	}
	// Volume decreases (weakly) as the threshold rises.
	for i := 1; i < len(ths); i++ {
		if ths[i].OntoEntries > ths[i-1].OntoEntries {
			t.Errorf("entries increased with threshold: %+v", ths)
		}
	}
	decays := e.DecayAblation(AblationKeywords[:4], []float64{0.3, 0.5, 0.7})
	for i := 1; i < len(decays); i++ {
		if decays[i].OntoEntries < decays[i-1].OntoEntries {
			t.Errorf("entries decreased with slower decay: %+v", decays)
		}
	}
	out := RenderAblations(merged, ths, decays)
	if !strings.Contains(out, "ABLATION") {
		t.Error("rendering broken")
	}
}

func TestExpansionComparisonShape(t *testing.T) {
	e := sharedEnv(t)
	res := e.ExpansionComparison()
	if len(res.Rows) != len(Table1Queries) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var xo, qe int
	for _, r := range res.Rows {
		xo += r.XOntoRelevant
		qe += r.ExpRelevant
		if r.XOntoRelevant > 0 && r.XOntoAvgSize <= 0 {
			t.Errorf("query %q: relevant results but zero avg size", r.Query)
		}
	}
	// The paper's Section VIII position: index-time ontological scoring
	// beats query expansion on result quality.
	if xo <= qe {
		t.Errorf("XOntoRank relevant total %d not above expansion %d", xo, qe)
	}
	if !strings.Contains(res.String(), "AVERAGE") {
		t.Error("rendering broken")
	}
}

func TestQueriesWithKeywordCount(t *testing.T) {
	qs := QueriesWithKeywordCount(3, 5)
	if len(qs) != 5 {
		t.Fatalf("queries = %d", len(qs))
	}
	for _, q := range qs {
		kws := query.ParseQuery(q)
		if len(kws) != 3 {
			t.Errorf("query %q has %d keywords", q, len(kws))
		}
		seen := map[query.Keyword]bool{}
		for _, kw := range kws {
			if seen[kw] {
				t.Errorf("query %q repeats keyword %q", q, kw)
			}
			seen[kw] = true
		}
	}
}

func TestPrecisionRecallShape(t *testing.T) {
	e := sharedEnv(t)
	res := e.PrecisionRecall(5, 10)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byStrategy := map[ontoscore.Strategy]PRFRow{}
	for _, r := range res.Rows {
		byStrategy[r.Strategy] = r
		if r.Precision < 0 || r.Precision > 1 || r.Recall < 0 || r.Recall > 1 {
			t.Errorf("%v metrics out of range: %+v", r.Strategy, r)
		}
	}
	// The paper's conclusion: precision and recall of the ontology-aware
	// algorithm beat the baseline.
	xr := byStrategy[ontoscore.StrategyNone]
	rel := byStrategy[ontoscore.StrategyRelationships]
	if rel.Recall <= xr.Recall {
		t.Errorf("Relationships recall %.3f not above XRANK %.3f", rel.Recall, xr.Recall)
	}
	if rel.F1 <= xr.F1 {
		t.Errorf("Relationships F1 %.3f not above XRANK %.3f", rel.F1, xr.F1)
	}
	if !strings.Contains(res.String(), "PRECISION/RECALL") {
		t.Error("rendering broken")
	}
}

func TestScalingStudyShape(t *testing.T) {
	rows, err := ScalingStudy(7, []int{5, 15}, 80)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].Elements <= rows[0].Elements || rows[1].Postings <= rows[0].Postings {
		t.Errorf("volume did not grow: %+v", rows)
	}
	if rows[0].IndexTime <= 0 || rows[0].AvgQueryTime <= 0 {
		t.Error("degenerate timings")
	}
	if !strings.Contains(RenderScaling(rows), "SCALING") {
		t.Error("rendering broken")
	}
}

func TestDensityAblationShape(t *testing.T) {
	rows, err := DensityAblation(5, 6, []float64{0.5, 4}, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].AvgInDegree <= rows[0].AvgInDegree {
		t.Errorf("in-degree did not grow: %+v", rows)
	}
	for _, r := range rows {
		if r.GraphRel < 0 || r.GraphRel > 1 || r.TaxRel < 0 || r.TaxRel > 1 {
			t.Errorf("distances out of range: %+v", r)
		}
	}
	if !strings.Contains(RenderDensity(rows), "ABLATION") {
		t.Error("rendering broken")
	}
}
