// Package xmltree provides the XML document model used throughout
// XOntoRank: labeled trees with Dewey identifiers, textual descriptions,
// and ontological code-node detection.
//
// An XML document is viewed as a labeled tree (paper Section III). Each
// node has a textual description — the concatenation of its tag name,
// attribute names and values, and text content — and an optional
// ontological reference (a coding-system identifier plus a concept code).
// Nodes carrying an ontological reference are called code nodes.
package xmltree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Dewey is a Dewey identifier: the path of child ordinals from the root
// to a node. By convention (paper Figure 10) the first component is the
// document ID, so Dewey identifiers are unique across a corpus and a
// single lexicographic order interleaves all documents.
type Dewey []int32

// ParseDewey parses a dotted Dewey string such as "3.0.1.2".
func ParseDewey(s string) (Dewey, error) {
	if s == "" {
		return nil, errors.New("xmltree: empty dewey string")
	}
	parts := strings.Split(s, ".")
	d := make(Dewey, len(parts))
	for i, p := range parts {
		n, err := strconv.ParseInt(p, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("xmltree: bad dewey component %q: %w", p, err)
		}
		if n < 0 {
			return nil, fmt.Errorf("xmltree: negative dewey component %d", n)
		}
		d[i] = int32(n)
	}
	return d, nil
}

// String renders the identifier in dotted form, e.g. "3.0.1.2".
func (d Dewey) String() string {
	if len(d) == 0 {
		return ""
	}
	var b strings.Builder
	for i, c := range d {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(strconv.FormatInt(int64(c), 10))
	}
	return b.String()
}

// Clone returns an independent copy of d.
func (d Dewey) Clone() Dewey {
	if d == nil {
		return nil
	}
	c := make(Dewey, len(d))
	copy(c, d)
	return c
}

// Child returns the Dewey identifier of the i-th child of d.
func (d Dewey) Child(i int32) Dewey {
	c := make(Dewey, len(d)+1)
	copy(c, d)
	c[len(d)] = i
	return c
}

// Parent returns the identifier of d's parent, or nil if d is a root
// (length <= 1; the document-ID component has no parent).
func (d Dewey) Parent() Dewey {
	if len(d) <= 1 {
		return nil
	}
	return d[:len(d)-1].Clone()
}

// Level is the depth of the node: the number of components.
func (d Dewey) Level() int { return len(d) }

// DocID returns the document-ID component, or -1 for an empty identifier.
func (d Dewey) DocID() int32 {
	if len(d) == 0 {
		return -1
	}
	return d[0]
}

// Compare orders Dewey identifiers in document order: component-wise
// numeric comparison with the shorter (ancestor) identifier first on a
// shared prefix. Returns -1, 0, or +1.
func (d Dewey) Compare(o Dewey) int {
	n := len(d)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		switch {
		case d[i] < o[i]:
			return -1
		case d[i] > o[i]:
			return 1
		}
	}
	switch {
	case len(d) < len(o):
		return -1
	case len(d) > len(o):
		return 1
	}
	return 0
}

// Equal reports whether d and o are the same identifier.
func (d Dewey) Equal(o Dewey) bool { return d.Compare(o) == 0 }

// IsAncestorOf reports whether d is a proper ancestor of o.
func (d Dewey) IsAncestorOf(o Dewey) bool {
	if len(d) >= len(o) {
		return false
	}
	for i := range d {
		if d[i] != o[i] {
			return false
		}
	}
	return true
}

// IsAncestorOrSelf reports whether d is o or a proper ancestor of o.
func (d Dewey) IsAncestorOrSelf(o Dewey) bool {
	return d.Equal(o) || d.IsAncestorOf(o)
}

// Distance returns the number of containment edges between an ancestor a
// and descendant d, and false if a is not an ancestor-or-self of d.
func (d Dewey) Distance(a Dewey) (int, bool) {
	if !a.IsAncestorOrSelf(d) {
		return 0, false
	}
	return len(d) - len(a), true
}

// CanonicalUvarint decodes a uvarint, rejecting truncated and
// non-canonical (over-long) encodings; only the minimal encoding of
// each value is accepted.
func CanonicalUvarint(buf []byte) (uint64, int, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, 0, errors.New("truncated or overlong uvarint")
	}
	if n > 1 && buf[n-1] == 0 {
		return 0, 0, errors.New("non-canonical uvarint")
	}
	return v, n, nil
}
