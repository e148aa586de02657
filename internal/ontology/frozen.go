package ontology

import (
	"cmp"
	"slices"
)

// Frozen is an immutable, cache-friendly snapshot of an ontology's
// graph structure — the "in-memory representations of the ontology
// graphs" the paper's conclusion proposes for scaling index creation.
// All adjacency lists live in shared arenas (CSR layout) and accessor
// calls return subslices of them: zero allocation on the expansion hot
// path, in contrast to the map-backed Ontology whose Neighbors call
// allocates and sorts per invocation.
//
// Frozen implements the same traversal accessors as *Ontology
// (Neighbors, Superclasses, Subclasses, NumSubclasses, Out, In,
// InDegree); the OntoScore computer traverses nothing else.
type Frozen struct {
	ont *Ontology

	ids   []ConceptID // dense index -> concept id
	dense []int32     // concept id -> dense index (-1: not a concept)

	nbrArena []ConceptID
	nbrStart []int32

	supArena []ConceptID
	supStart []int32

	subArena []ConceptID
	subStart []int32

	outArena []Edge
	outStart []int32

	inArena []Edge
	inStart []int32

	// inDegree[t][dense] counts incoming edges of type t.
	inDegree map[RelType][]int32
}

// Freeze builds the immutable snapshot. Later mutations of the source
// ontology are not reflected.
func Freeze(o *Ontology) *Frozen {
	ids := o.Concepts()
	f := &Frozen{
		ont:      o,
		ids:      ids,
		inDegree: make(map[RelType][]int32),
	}
	// Concept IDs are assigned sequentially from 1 (AddConcept), so the
	// id -> dense table is as long as the ontology.
	if n := len(ids); n > 0 {
		f.dense = make([]int32, ids[n-1]+1)
	}
	for i := range f.dense {
		f.dense[i] = -1
	}
	for i, id := range ids {
		f.dense[id] = int32(i)
	}
	n := len(ids)
	edges := 0
	for _, id := range ids {
		edges += len(o.out[id])
	}
	f.nbrArena = make([]ConceptID, 0, 2*edges)
	f.outArena = make([]Edge, 0, edges)
	f.inArena = make([]Edge, 0, edges)
	f.nbrStart = make([]int32, n+1)
	f.supStart = make([]int32, n+1)
	f.subStart = make([]int32, n+1)
	f.outStart = make([]int32, n+1)
	f.inStart = make([]int32, n+1)

	byTarget := func(a, b Edge) int {
		if c := cmp.Compare(a.To, b.To); c != 0 {
			return c
		}
		return cmp.Compare(a.Type, b.Type)
	}
	for i, id := range ids {
		// Neighbors: out and in targets, ascending, each once (what
		// Ontology.Neighbors returns, without its per-call map).
		start := len(f.nbrArena)
		for _, e := range o.out[id] {
			f.nbrArena = append(f.nbrArena, e.To)
		}
		for _, e := range o.in[id] {
			f.nbrArena = append(f.nbrArena, e.To)
		}
		nbrs := f.nbrArena[start:]
		slices.Sort(nbrs)
		f.nbrArena = f.nbrArena[:start+len(slices.Compact(nbrs))]
		f.nbrStart[i+1] = int32(len(f.nbrArena))

		start = len(f.supArena)
		f.supArena = append(f.supArena, o.Superclasses(id)...)
		slices.Sort(f.supArena[start:])
		f.supStart[i+1] = int32(len(f.supArena))

		start = len(f.subArena)
		f.subArena = append(f.subArena, o.Subclasses(id)...)
		slices.Sort(f.subArena[start:])
		f.subStart[i+1] = int32(len(f.subArena))

		start = len(f.outArena)
		f.outArena = append(f.outArena, o.out[id]...)
		slices.SortFunc(f.outArena[start:], byTarget)
		f.outStart[i+1] = int32(len(f.outArena))

		start = len(f.inArena)
		f.inArena = append(f.inArena, o.in[id]...)
		slices.SortFunc(f.inArena[start:], byTarget)
		f.inStart[i+1] = int32(len(f.inArena))

		for _, e := range o.in[id] {
			counts, ok := f.inDegree[e.Type]
			if !ok {
				counts = make([]int32, n)
				f.inDegree[e.Type] = counts
			}
			counts[i]++
		}
	}
	return f
}

// Ontology returns the source ontology (terms, codes, concepts).
func (f *Frozen) Ontology() *Ontology { return f.ont }

// Len is the number of concepts.
func (f *Frozen) Len() int { return len(f.ids) }

func (f *Frozen) idx(c ConceptID) (int32, bool) {
	if c < 0 || c >= ConceptID(len(f.dense)) || f.dense[c] < 0 {
		return 0, false
	}
	return f.dense[c], true
}

// Dense returns c's dense index in [0, Len()) — a slice subscript for
// per-concept tables built over the snapshot — and whether c is a
// concept of it.
func (f *Frozen) Dense(c ConceptID) (int, bool) {
	i, ok := f.idx(c)
	return int(i), ok
}

// ID returns the concept at dense index i in [0, Len()) — the inverse
// of Dense. Dense order is ConceptID order.
func (f *Frozen) ID(i int) ConceptID { return f.ids[i] }

// Neighbors returns the undirected, unlabeled adjacency of c. The
// returned slice is shared; callers must not modify it.
func (f *Frozen) Neighbors(c ConceptID) []ConceptID {
	i, ok := f.idx(c)
	if !ok {
		return nil
	}
	return f.nbrArena[f.nbrStart[i]:f.nbrStart[i+1]]
}

// Superclasses returns the direct is-a parents of c (shared slice).
func (f *Frozen) Superclasses(c ConceptID) []ConceptID {
	i, ok := f.idx(c)
	if !ok {
		return nil
	}
	return f.supArena[f.supStart[i]:f.supStart[i+1]]
}

// Subclasses returns the direct is-a children of c (shared slice).
func (f *Frozen) Subclasses(c ConceptID) []ConceptID {
	i, ok := f.idx(c)
	if !ok {
		return nil
	}
	return f.subArena[f.subStart[i]:f.subStart[i+1]]
}

// NumSubclasses counts the direct is-a children of c.
func (f *Frozen) NumSubclasses(c ConceptID) int {
	return len(f.Subclasses(c))
}

// Out returns the outgoing edges of c (shared slice).
func (f *Frozen) Out(c ConceptID) []Edge {
	i, ok := f.idx(c)
	if !ok {
		return nil
	}
	return f.outArena[f.outStart[i]:f.outStart[i+1]]
}

// In returns the incoming edges of c with Edge.To holding the source
// (shared slice).
func (f *Frozen) In(c ConceptID) []Edge {
	i, ok := f.idx(c)
	if !ok {
		return nil
	}
	return f.inArena[f.inStart[i]:f.inStart[i+1]]
}

// InDegree counts incoming edges of the given type.
func (f *Frozen) InDegree(c ConceptID, t RelType) int {
	i, ok := f.idx(c)
	if !ok {
		return 0
	}
	counts, ok := f.inDegree[t]
	if !ok {
		return 0
	}
	return int(counts[i])
}
