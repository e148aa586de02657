package ontoscore

import "repro/internal/ontology"

// Side is the ontology side of index creation for one collection: one
// Computer per ontological system, built once for given Params. In the
// paper OS(O, w, c) depends on the ontology, the strategy and the
// keyword, never on the corpus, so a side outlives any one corpus
// snapshot: a generation's full-text stage, every shard's stage and
// every delta-segment state over the same collection share it, and an
// acknowledged write builds no computer. A side is read-only after
// NewSide returns and safe for concurrent use.
type Side struct {
	coll      *ontology.Collection
	params    Params
	computers []*Computer // collection order
}

// NewSide freezes and indexes every ontology of the collection. It is
// the one place computers are built for serving.
func NewSide(coll *ontology.Collection, params Params) *Side {
	s := &Side{coll: coll, params: params}
	for _, ont := range coll.Ontologies() {
		s.computers = append(s.computers, NewComputer(ont, params))
	}
	return s
}

// Collection returns the ontological-systems collection.
func (s *Side) Collection() *ontology.Collection { return s.coll }

// Params returns the OntoScore parameters the computers were built with.
func (s *Side) Params() Params { return s.params }

// Computers returns one computer per system, in collection order. The
// slice is shared; callers must not modify it.
func (s *Side) Computers() []*Computer { return s.computers }

// Computer returns the computer of one system (nil when the system is
// not in the collection).
func (s *Side) Computer(systemID string) *Computer {
	for _, c := range s.computers {
		if c.ont.SystemID == systemID {
			return c
		}
	}
	return nil
}
