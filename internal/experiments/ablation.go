package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/ontology"
	"repro/internal/ontoscore"
)

// Ablations for the design choices DESIGN.md calls out: the
// Observation-1 merged expansion, the pruning threshold, and the decay
// parameter.

// MergedBFSAblationRow compares merged vs. naive expansion for one
// keyword.
type MergedBFSAblationRow struct {
	Keyword    string
	Seeds      int
	MergedTime time.Duration
	NaiveTime  time.Duration
	Concepts   int
}

// MergedBFSAblation measures the Observation-1 optimization: one merged
// best-first expansion versus one expansion per seed. Results are
// verified identical by the ontoscore tests; here only cost is compared.
func (e *Env) MergedBFSAblation(keywords []string, repeats int) []MergedBFSAblationRow {
	c := e.computer(ontoscore.DefaultParams())
	var rows []MergedBFSAblationRow
	for _, kw := range keywords {
		seeds := c.Seeds(kw)
		if len(seeds) == 0 {
			continue
		}
		var merged ontoscore.Scores
		mt := timeIt(repeats, func() { merged = c.Graph(kw) })
		nt := timeIt(repeats, func() { c.GraphNaive(kw) })
		rows = append(rows, MergedBFSAblationRow{
			Keyword:    kw,
			Seeds:      len(seeds),
			MergedTime: mt,
			NaiveTime:  nt,
			Concepts:   len(merged),
		})
	}
	return rows
}

// ThresholdAblationRow records index volume at one pruning threshold.
type ThresholdAblationRow struct {
	Threshold     float64
	OntoEntries   int
	PerKeywordAvg float64
}

// ThresholdAblation sweeps the pruning threshold and reports the
// OntoScore-map volume for a keyword sample, quantifying the paper's
// space/quality trade-off ("the size of the XOnto-DIL entries can be
// reduced by appropriately adjusting the threshold").
func (e *Env) ThresholdAblation(keywords []string, thresholds []float64) []ThresholdAblationRow {
	var rows []ThresholdAblationRow
	for _, th := range thresholds {
		params := ontoscore.DefaultParams()
		params.Threshold = th
		c := e.computer(params)
		m := ontoscore.BuildMap(c, ontoscore.StrategyRelationships, keywords)
		rows = append(rows, ThresholdAblationRow{
			Threshold:     th,
			OntoEntries:   m.Entries(),
			PerKeywordAvg: float64(m.Entries()) / float64(len(keywords)),
		})
	}
	return rows
}

// DecayAblationRow records expansion reach at one decay value.
type DecayAblationRow struct {
	Decay       float64
	OntoEntries int
}

// DecayAblation sweeps the Graph strategy's decay, showing how reach
// (and thus index volume) grows with slower decay.
func (e *Env) DecayAblation(keywords []string, decays []float64) []DecayAblationRow {
	var rows []DecayAblationRow
	for _, d := range decays {
		params := ontoscore.DefaultParams()
		params.Decay = d
		c := e.computer(params)
		m := ontoscore.BuildMap(c, ontoscore.StrategyGraph, keywords)
		rows = append(rows, DecayAblationRow{Decay: d, OntoEntries: m.Entries()})
	}
	return rows
}

// computer returns an OntoScore computer over the environment's
// ontology under params, through the ontology side like every other
// caller.
func (e *Env) computer(params ontoscore.Params) *ontoscore.Computer {
	return ontoscore.NewSide(ontology.MustCollection(e.Ont), params).Computer(e.Ont.SystemID)
}

// AblationKeywords is the default keyword sample for the ablations.
var AblationKeywords = []string{
	"asthma", "cardiac", "structure", "chronic", "stenosis",
	"arrhythmia", "aspirin", "ventricular", "disorder", "agent",
}

// RenderAblations formats all three ablations.
func RenderAblations(merged []MergedBFSAblationRow, thresholds []ThresholdAblationRow, decays []DecayAblationRow) string {
	var b strings.Builder
	b.WriteString("ABLATION: merged (Observation 1) vs naive per-seed expansion, Graph strategy\n")
	fmt.Fprintf(&b, "%-14s %6s %12s %12s %10s\n", "Keyword", "Seeds", "Merged(us)", "Naive(us)", "Concepts")
	for _, r := range merged {
		fmt.Fprintf(&b, "%-14s %6d %12.1f %12.1f %10d\n", r.Keyword, r.Seeds,
			float64(r.MergedTime.Nanoseconds())/1e3, float64(r.NaiveTime.Nanoseconds())/1e3, r.Concepts)
	}
	b.WriteString("\nABLATION: pruning threshold vs OntoScore-map volume, Relationships strategy\n")
	fmt.Fprintf(&b, "%-10s %12s %14s\n", "Threshold", "Entries", "Avg/keyword")
	for _, r := range thresholds {
		fmt.Fprintf(&b, "%-10.3f %12d %14.1f\n", r.Threshold, r.OntoEntries, r.PerKeywordAvg)
	}
	b.WriteString("\nABLATION: decay vs OntoScore-map volume, Graph strategy\n")
	fmt.Fprintf(&b, "%-10s %12s\n", "Decay", "Entries")
	for _, r := range decays {
		fmt.Fprintf(&b, "%-10.2f %12d\n", r.Decay, r.OntoEntries)
	}
	return b.String()
}

func timeIt(repeats int, fn func()) time.Duration {
	if repeats < 1 {
		repeats = 1
	}
	start := time.Now()
	for i := 0; i < repeats; i++ {
		fn()
	}
	return time.Since(start) / time.Duration(repeats)
}
