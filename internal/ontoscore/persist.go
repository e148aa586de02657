package ontoscore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/ontology"
	"repro/internal/store"
	"repro/internal/xmltree"
)

// Persistence for OntoScore maps. The OntoScore stage is the expensive
// middle step of index creation (Section V-B); persisting its output
// lets a rebuilt index — or a different corpus over the same ontology —
// reuse it. Each keyword's scores are stored under
// "<prefix>/<strategy>/<keyword>".

// appendScores encodes one keyword's concept scores.
func appendScores(buf []byte, s Scores) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	// Deterministic order for byte-stable persistence.
	ids := make([]ontology.ConceptID, 0, len(s))
	for id := range s {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ { // insertion sort; maps are small
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, uint64(id))
		var f [8]byte
		binary.LittleEndian.PutUint64(f[:], math.Float64bits(s[id]))
		buf = append(buf, f[:]...)
	}
	return buf
}

func decodeScores(buf []byte) (Scores, error) {
	n, sz, err := xmltree.CanonicalUvarint(buf)
	if err != nil {
		return nil, fmt.Errorf("ontoscore: scores header: %w", err)
	}
	if n > 1<<28 {
		return nil, fmt.Errorf("ontoscore: implausible score count %d", n)
	}
	off := sz
	out := make(Scores, n)
	for i := uint64(0); i < n; i++ {
		id, used, err := xmltree.CanonicalUvarint(buf[off:])
		if err != nil {
			return nil, fmt.Errorf("ontoscore: concept id: %w", err)
		}
		off += used
		if off+8 > len(buf) {
			return nil, errors.New("ontoscore: truncated score")
		}
		out[ontology.ConceptID(id)] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
	}
	if off != len(buf) {
		return nil, errors.New("ontoscore: trailing bytes after scores")
	}
	return out, nil
}

// denseOf converts a concept-keyed map to the dense numbering, in
// ascending index order.
func (c *Computer) denseOf(s Scores) (Dense, error) {
	if len(s) == 0 {
		return Dense{}, nil
	}
	d := Dense{Idx: make([]int32, 0, len(s)), Score: make([]float64, 0, len(s))}
	for id := range s {
		i, ok := c.Dense(id)
		if !ok {
			return Dense{}, fmt.Errorf("ontoscore: concept %d not in the ontology", id)
		}
		d.Idx = append(d.Idx, int32(i))
	}
	slices.Sort(d.Idx)
	for _, i := range d.Idx {
		d.Score = append(d.Score, s[c.graph.ID(int(i))])
	}
	return d, nil
}

// SaveTo persists the map's entries under the prefix.
func (m *Map) SaveTo(st *store.Store, prefix string) error {
	base := prefix + "/" + m.strategy.String() + "/"
	for _, kw := range m.Keywords() {
		if err := st.Put(base+kw, appendScores(nil, m.ScoresFor(kw))); err != nil {
			return fmt.Errorf("ontoscore: saving %q: %w", kw, err)
		}
	}
	return st.Sync()
}

// LoadMap reads a map previously saved for the strategy against the
// computer's ontology; a saved concept the ontology lacks is an error.
func LoadMap(st *store.Store, prefix string, c *Computer, strategy Strategy) (*Map, error) {
	m := &Map{strategy: strategy, c: c, scores: make(map[string]Dense)}
	base := prefix + "/" + strategy.String() + "/"
	var firstErr error
	err := st.Scan(base, func(key string, val []byte) bool {
		kw := strings.TrimPrefix(key, base)
		var d Dense
		s, err := decodeScores(val)
		if err == nil {
			d, err = c.denseOf(s)
		}
		if err != nil {
			firstErr = fmt.Errorf("ontoscore: loading %q: %w", kw, err)
			return false
		}
		if d.Len() > 0 {
			m.scores[kw] = d
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return m, nil
}
