package xontorank

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dil"
	"repro/internal/query"
	"repro/internal/xmltree"
)

// Merge microbenchmarks over synthetic encoded lists with controlled
// shape, all resolving their element keys through one shared table. The
// skewed shapes — one rare keyword against common ones — are where
// document zig-zag skipping pays; uniform shapes bound the merge's
// overhead when every posting must be touched anyway; the deep shape
// looks like served lists, where the XRANK stack's per-posting cost
// dominates.

// mergeShapes are the workload shapes of BenchmarkDILMerge.
var mergeShapes = []string{"skewed", "uniform", "deep"}

// mergeWorkload builds k Dewey-sorted lists over a shared document
// range, encoded with the table resolving their keys (keyAll). Skewed workloads make list 0 rare (few documents) and the
// rest dense; uniform workloads give every list the same density with
// 3-level identifiers; deep workloads give every list about 16
// postings per document at ragged depths 6–10, the shape (postings per
// document, mean depth ≈ 8) traced on the served merge workload.
func mergeWorkload(k int, shape string) []*dil.CompactList {
	const (
		docs       = 5000
		perDoc     = 4
		rareDocs   = 20
		uniDocs    = 500
		uniPerDoc  = 10
		deepDocs   = 400
		deepPerDoc = 16
	)
	seed := int64(k)*2 + b2i(shape == "skewed")
	if shape == "deep" {
		seed += 1000
	}
	rng := rand.New(rand.NewSource(seed))
	build := func(docSet []int32, perDoc int) []entry {
		l := make([]entry, 0, len(docSet)*perDoc)
		for _, doc := range docSet {
			for j := 0; j < perDoc; j++ {
				id := xmltree.Dewey{doc, int32(j % 3), int32(rng.Intn(4))}
				if shape == "deep" {
					id = make(xmltree.Dewey, 6+rng.Intn(5))
					id[0] = doc
					for d := 1; d < len(id); d++ {
						id[d] = int32(rng.Intn(3))
					}
				}
				l = append(l, entry{ID: id, Score: float64(1+rng.Intn(1000)) / 1000})
			}
		}
		slices.SortFunc(l, func(a, b entry) int { return a.ID.Compare(b.ID) })
		return slices.CompactFunc(l, func(a, b entry) bool { return a.ID.Equal(b.ID) })
	}
	seq := func(n, limit int) []int32 {
		set := make([]int32, n)
		for i := range set {
			set[i] = int32(i * (limit / n))
		}
		return set
	}
	lists := make([][]entry, k)
	switch shape {
	case "skewed":
		lists[0] = build(seq(rareDocs, docs), perDoc)
		for i := 1; i < k; i++ {
			lists[i] = build(seq(docs, docs), perDoc)
		}
	case "deep":
		for i := range lists {
			lists[i] = build(seq(deepDocs, deepDocs), deepPerDoc)
		}
	default:
		for i := range lists {
			lists[i] = build(seq(uniDocs, uniDocs), uniPerDoc)
		}
	}
	return keyAll(lists)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// entry is a posting in Dewey form: how the workloads are stated.
type entry struct {
	ID    xmltree.Dewey
	Score float64
}

// keyAll keys Dewey-ordered lists, each holding an element once, into
// one shared table of every listed element and all its ancestors, in
// Dewey order as a stage numbers them, and encodes them.
func keyAll(lists [][]entry) []*dil.CompactList {
	var ids []xmltree.Dewey
	for _, l := range lists {
		for _, e := range l {
			for n := 1; n <= len(e.ID); n++ {
				ids = append(ids, e.ID[:n])
			}
		}
	}
	slices.SortFunc(ids, xmltree.Dewey.Compare)
	ids = slices.CompactFunc(ids, xmltree.Dewey.Equal)
	table := dil.IDs{Base: dil.NewKeys(ids)}
	out := make([]*dil.CompactList, len(lists))
	for i, es := range lists {
		kl := make(dil.List, len(es))
		for j, e := range es {
			key, _ := slices.BinarySearchFunc(ids, e.ID, xmltree.Dewey.Compare)
			kl[j] = dil.Posting{Key: int32(key), Doc: e.ID[0], Score: e.Score}
		}
		out[i] = dil.Compact(kl, table)
	}
	return out
}

// BenchmarkDILMerge times the merge alone on skewed conjunctions (a
// rare keyword and common ones), uniform ones, and deep served-like
// ones.
func BenchmarkDILMerge(b *testing.B) {
	for _, k := range []int{2, 3, 5} {
		for _, shape := range mergeShapes {
			lists := mergeWorkload(k, shape)
			want := len(query.RunLists(lists, 0.5, 0))
			b.Run(fmt.Sprintf("keywords=%d/%s/fast", k, shape), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if len(query.RunLists(lists, 0.5, 0)) != want {
						b.Fatalf("result count changed (want %d)", want)
					}
				}
			})
		}
	}
}

// disjointWorkload builds two lists on disjoint documents (odd vs
// even): the merge emits nothing, isolating its own allocation
// behavior from result construction.
func disjointWorkload() []*dil.CompactList {
	mk := func(base int32) []entry {
		l := make([]entry, 0, 4096)
		for doc := int32(0); doc < 2048; doc++ {
			l = append(l,
				entry{ID: xmltree.Dewey{base + 2*doc, 0, 1}, Score: 0.5},
				entry{ID: xmltree.Dewey{base + 2*doc, 1}, Score: 0.25})
		}
		return l
	}
	return keyAll([][]entry{mk(0), mk(1)})
}

// BenchmarkDILMergeAllocs isolates steady-state allocation: with
// disjoint documents the merge emits nothing, so after the pools warm
// up the merge must allocate nothing at all. (With results, the only
// allocations left are the result values handed to the caller.)
func BenchmarkDILMergeAllocs(b *testing.B) {
	lists := disjointWorkload()
	b.Run("disjoint/fast", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(query.RunLists(lists, 0.5, 0)) != 0 {
				b.Fatal("unexpected results")
			}
		}
	})
}
