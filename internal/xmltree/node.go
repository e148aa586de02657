package xmltree

import (
	"fmt"
	"strings"
)

// Attr is a single XML attribute.
type Attr struct {
	Name  string
	Value string
}

// OntoRef is an ontological reference carried by a code node: the
// identifier of the referenced coding system (e.g. the SNOMED CT OID)
// and the concept code within that system.
type OntoRef struct {
	System string // coding-system identifier (codeSystem attribute)
	Code   string // concept code within the system (code attribute)
}

// IsZero reports whether r carries no reference.
func (r OntoRef) IsZero() bool { return r.System == "" && r.Code == "" }

func (r OntoRef) String() string {
	if r.IsZero() {
		return "<none>"
	}
	return r.System + "/" + r.Code
}

// Node is one element of the labeled XML tree. Text content directly
// under an element is stored in Text (concatenated character data);
// mixed content ordering is not preserved, which is sufficient for the
// keyword-search model where a node contributes a bag of words.
type Node struct {
	Tag      string
	Attrs    []Attr
	Text     string
	Children []*Node
	Parent   *Node

	// ID is the node's Dewey identifier, assigned by Document.AssignDewey.
	ID Dewey
}

// Attr returns the value of the named attribute and whether it exists.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// SetAttr sets or replaces the named attribute.
func (n *Node) SetAttr(name, value string) {
	for i, a := range n.Attrs {
		if a.Name == name {
			n.Attrs[i].Value = value
			return
		}
	}
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
}

// AppendChild adds c as the last child of n and sets its parent link.
func (n *Node) AppendChild(c *Node) *Node {
	c.Parent = n
	n.Children = append(n.Children, c)
	return c
}

// NewChild creates, appends, and returns a child element with the given tag.
func (n *Node) NewChild(tag string) *Node {
	return n.AppendChild(&Node{Tag: tag})
}

// OntoRef extracts the node's ontological reference, if any. Following
// the HL7 CDA convention, a node references a concept when it carries
// both a code and a codeSystem attribute (paper Section II: "certain XML
// elements reference concepts of SNOMED ... code=... codeSystem=...").
func (n *Node) OntoRef() (OntoRef, bool) {
	code, okC := n.Attr("code")
	sys, okS := n.Attr("codeSystem")
	if !okC || !okS || code == "" || sys == "" {
		return OntoRef{}, false
	}
	return OntoRef{System: sys, Code: code}, true
}

// IsCodeNode reports whether the node carries an ontological reference.
func (n *Node) IsCodeNode() bool {
	_, ok := n.OntoRef()
	return ok
}

// Walk visits n and every descendant in document order. If fn returns
// false the walk does not descend into that node's children.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Find returns the first node in document order for which pred is true.
func (n *Node) Find(pred func(*Node) bool) *Node {
	var found *Node
	n.Walk(func(v *Node) bool {
		if found != nil {
			return false
		}
		if pred(v) {
			found = v
			return false
		}
		return true
	})
	return found
}

// Descendants returns every node of the subtree rooted at n, including n,
// in document order.
func (n *Node) Descendants() []*Node {
	var out []*Node
	n.Walk(func(v *Node) bool {
		out = append(out, v)
		return true
	})
	return out
}

// Size is the number of nodes in the subtree rooted at n, including n.
func (n *Node) Size() int {
	total := 0
	n.Walk(func(*Node) bool {
		total++
		return true
	})
	return total
}

// Path renders the tag path from the root to n, e.g.
// "ClinicalDocument/component/structuredBody".
func (n *Node) Path() string {
	var tags []string
	for v := n; v != nil; v = v.Parent {
		tags = append(tags, v.Tag)
	}
	for i, j := 0, len(tags)-1; i < j; i, j = i+1, j-1 {
		tags[i], tags[j] = tags[j], tags[i]
	}
	return strings.Join(tags, "/")
}

// Document is one XML document of the corpus.
type Document struct {
	// ID is the corpus-wide document identifier; it becomes the first
	// component of every Dewey identifier in the document.
	ID   int32
	Root *Node

	// Name is an optional human-readable identifier (file name, patient
	// record id, ...).
	Name string
}

// AssignDewey (re)assigns Dewey identifiers to every node of the
// document. The root receives [ID]; the i-th child of a node with
// identifier d receives d.i.
func (d *Document) AssignDewey() {
	if d.Root == nil {
		return
	}
	var assign func(n *Node, id Dewey)
	assign = func(n *Node, id Dewey) {
		n.ID = id
		for i, c := range n.Children {
			assign(c, id.Child(int32(i)))
		}
	}
	assign(d.Root, Dewey{d.ID})
}

// NodeAt resolves a Dewey identifier to the node it names, or nil if the
// identifier does not address a node of this document.
func (d *Document) NodeAt(id Dewey) *Node {
	if d.Root == nil || len(id) == 0 || id[0] != d.ID {
		return nil
	}
	n := d.Root
	for _, ord := range id[1:] {
		if int(ord) >= len(n.Children) {
			return nil
		}
		n = n.Children[ord]
	}
	return n
}

// Nodes returns every node of the document in document order.
func (d *Document) Nodes() []*Node {
	if d.Root == nil {
		return nil
	}
	return d.Root.Descendants()
}

// Size is the number of XML elements in the document.
func (d *Document) Size() int {
	if d.Root == nil {
		return 0
	}
	return d.Root.Size()
}

// Corpus is an ordered collection of documents indexed by document ID.
type Corpus struct {
	docs  []*Document
	byID  map[int32]*Document
	next  int32
	named map[string]*Document
}

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus {
	return &Corpus{
		byID:  make(map[int32]*Document),
		named: make(map[string]*Document),
	}
}

// Add inserts a document, assigning it the next document ID and Dewey
// identifiers for all its nodes. It returns the stored document.
func (c *Corpus) Add(doc *Document) *Document {
	doc.ID = c.next
	c.next++
	doc.AssignDewey()
	c.docs = append(c.docs, doc)
	c.byID[doc.ID] = doc
	if doc.Name != "" {
		c.named[doc.Name] = doc
	}
	return doc
}

// AddExisting registers a document that already carries its
// corpus-wide ID and Dewey identifiers — the building block of
// document-partition views (internal/shard): a shard's corpus holds a
// subset of a parent corpus's documents under their ORIGINAL IDs, so
// Dewey identifiers, fragment lookups, and result roots are identical
// to the unsharded corpus. The document is shared, not copied; both
// corpora must treat it as immutable. Registering a duplicate ID or
// name panics — partitions are disjoint by construction, so a
// collision is a programming error, not an input error.
func (c *Corpus) AddExisting(doc *Document) *Document {
	if _, dup := c.byID[doc.ID]; dup {
		panic(fmt.Sprintf("xmltree: AddExisting: duplicate document ID %d", doc.ID))
	}
	c.docs = append(c.docs, doc)
	c.byID[doc.ID] = doc
	if doc.Name != "" {
		if _, dup := c.named[doc.Name]; dup {
			panic(fmt.Sprintf("xmltree: AddExisting: duplicate document name %q", doc.Name))
		}
		c.named[doc.Name] = doc
	}
	if doc.ID >= c.next {
		c.next = doc.ID + 1
	}
	return doc
}

// Doc returns the document with the given ID, or nil.
func (c *Corpus) Doc(id int32) *Document { return c.byID[id] }

// DocByName returns the document with the given name, or nil.
func (c *Corpus) DocByName(name string) *Document { return c.named[name] }

// Docs returns the documents in insertion order. The returned slice is
// shared; callers must not modify it.
func (c *Corpus) Docs() []*Document { return c.docs }

// Fingerprint summarizes the corpus identity as one FNV-1a hash over
// every document's ID, name, and element count, in corpus order. Two
// corpora with equal fingerprints hold the same documents under the
// same Dewey document components — the staleness check persisted
// index arenas run before serving (internal/arena).
func (c *Corpus) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	for _, d := range c.docs {
		mix(uint64(uint32(d.ID)))
		mix(uint64(len(d.Name)))
		for i := 0; i < len(d.Name); i++ {
			h ^= uint64(d.Name[i])
			h *= prime64
		}
		mix(uint64(d.Size()))
	}
	mix(uint64(len(c.docs)))
	return h
}

// Len is the number of documents in the corpus.
func (c *Corpus) Len() int { return len(c.docs) }

// NodeAt resolves a corpus-wide Dewey identifier.
func (c *Corpus) NodeAt(id Dewey) *Node {
	if len(id) == 0 {
		return nil
	}
	doc := c.byID[id[0]]
	if doc == nil {
		return nil
	}
	return doc.NodeAt(id)
}

// Stats summarizes a corpus for reporting.
type Stats struct {
	Documents  int
	Elements   int
	CodeNodes  int
	AvgElems   float64
	AvgCodeRef float64
}

// Stats computes corpus-level statistics (document count, element count,
// code-node count and per-document averages), mirroring the corpus
// description in the paper's Section VII.
func (c *Corpus) Stats() Stats {
	s := Stats{Documents: len(c.docs)}
	for _, d := range c.docs {
		for _, n := range d.Nodes() {
			s.Elements++
			if n.IsCodeNode() {
				s.CodeNodes++
			}
		}
	}
	if s.Documents > 0 {
		s.AvgElems = float64(s.Elements) / float64(s.Documents)
		s.AvgCodeRef = float64(s.CodeNodes) / float64(s.Documents)
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("docs=%d elements=%d codeNodes=%d avgElems=%.1f avgRefs=%.1f",
		s.Documents, s.Elements, s.CodeNodes, s.AvgElems, s.AvgCodeRef)
}
