// Command experiments regenerates the paper's evaluation artifacts:
// Table I (relevant results per query), Table II (top-k Kendall tau
// between approaches), Table III (XOnto-DIL creation cost), Figure 11
// (query time vs. keyword count), and the ablations DESIGN.md calls
// out.
//
// Usage:
//
//	experiments -all
//	experiments -table 1 -scale medium
//	experiments -figure 11
//	experiments -ablations -density
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	table := flag.Int("table", 0, "regenerate one table (1, 2, or 3)")
	figure := flag.Int("figure", 0, "regenerate one figure (11)")
	ablations := flag.Bool("ablations", false, "run the merged-BFS, threshold, and decay ablations")
	density := flag.Bool("density", false, "run the relationship-density ablation (slow)")
	expansionCmp := flag.Bool("expansion", false, "compare XOntoRank with the query-expansion baseline")
	prf := flag.Bool("prf", false, "pooled precision/recall evaluation")
	scaling := flag.Bool("scaling", false, "corpus-size scaling study (slow)")
	all := flag.Bool("all", false, "run everything")
	scaleName := flag.String("scale", "small", "small or medium")
	flag.Parse()

	if !*all && *table == 0 && *figure == 0 && !*ablations && !*density && !*expansionCmp && !*prf && !*scaling {
		*all = true
	}

	scale := experiments.Small
	switch *scaleName {
	case "small":
	case "medium":
		scale = experiments.Medium
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown scale %q\n", *scaleName)
		os.Exit(2)
	}

	env, err := experiments.NewEnv(scale)
	if err != nil {
		fail(err)
	}
	fmt.Printf("environment: scale=%s docs=%d elements=%d concepts=%d relationships=%d\n\n",
		scale.Name, env.Corpus.Len(), env.Corpus.Stats().Elements,
		env.Ont.Len(), env.Ont.NumRelationships())

	if *all || *table == 1 {
		fmt.Println(env.Table1().String())
	}
	if *all || *table == 2 {
		fmt.Println(env.Table2().String())
	}
	if *all || *table == 3 {
		t3, err := env.Table3()
		if err != nil {
			fail(err)
		}
		fmt.Println(t3.String())
	}
	if *all || *figure == 11 {
		f11, err := env.Figure11(10, 5)
		if err != nil {
			fail(err)
		}
		fmt.Println(f11.String())
	}
	if *all || *ablations {
		merged := env.MergedBFSAblation(experiments.AblationKeywords, 3)
		ths := env.ThresholdAblation(experiments.AblationKeywords, []float64{0, 0.05, 0.1, 0.2})
		decays := env.DecayAblation(experiments.AblationKeywords, []float64{0.3, 0.5, 0.7})
		fmt.Println(experiments.RenderAblations(merged, ths, decays))
	}
	if *all || *prf {
		fmt.Println(env.PrecisionRecall(5, 10).String())
	}
	if *all || *expansionCmp {
		fmt.Println(env.ExpansionComparison().String())
	}
	if *all || *density {
		rows, err := experiments.DensityAblation(scale.Seed, 40, []float64{0.5, 2, 6, 12}, 800)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderDensity(rows))
	}
	if *scaling {
		rows, err := experiments.ScalingStudy(scale.Seed, []int{50, 100, 200, 400}, 800)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderScaling(rows))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
