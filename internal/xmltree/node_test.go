package xmltree

import (
	"strings"
	"testing"
)

// buildSampleDoc builds a miniature CDA-like document mirroring the
// medications section of the paper's Figure 1.
func buildSampleDoc() *Document {
	root := &Node{Tag: "ClinicalDocument"}
	comp := root.NewChild("component")
	body := comp.NewChild("structuredBody")
	sec := body.NewChild("section")
	title := sec.NewChild("title")
	title.Text = "Medications"
	entry := sec.NewChild("entry")
	obs := entry.NewChild("Observation")
	code := obs.NewChild("code")
	code.SetAttr("code", "14657009")
	code.SetAttr("codeSystem", "2.16.840.1.113883.6.96")
	code.SetAttr("displayName", "Medications")
	val := obs.NewChild("value")
	val.SetAttr("code", "195967001")
	val.SetAttr("codeSystem", "2.16.840.1.113883.6.96")
	val.SetAttr("displayName", "Asthma")
	sub := sec.NewChild("entry").NewChild("SubstanceAdministration")
	txt := sub.NewChild("text")
	txt.Text = "Theophylline 20 mg every other day"
	return &Document{Root: root, Name: "sample"}
}

func TestAssignDeweyAndNodeAt(t *testing.T) {
	doc := buildSampleDoc()
	doc.ID = 7
	doc.AssignDewey()
	if got := doc.Root.ID.String(); got != "7" {
		t.Fatalf("root dewey = %q, want 7", got)
	}
	for _, n := range doc.Nodes() {
		if back := doc.NodeAt(n.ID); back != n {
			t.Fatalf("NodeAt(%v) resolved to wrong node", n.ID)
		}
	}
	if doc.NodeAt(Dewey{7, 99}) != nil {
		t.Error("NodeAt out-of-range ordinal should be nil")
	}
	if doc.NodeAt(Dewey{8}) != nil {
		t.Error("NodeAt wrong document should be nil")
	}
	if doc.NodeAt(nil) != nil {
		t.Error("NodeAt(nil) should be nil")
	}
}

func TestDeweyParentChildConsistency(t *testing.T) {
	doc := buildSampleDoc()
	doc.ID = 3
	doc.AssignDewey()
	for _, n := range doc.Nodes() {
		for i, c := range n.Children {
			if !c.ID.Equal(n.ID.Child(int32(i))) {
				t.Fatalf("child %d of %v has id %v", i, n.ID, c.ID)
			}
			if c.Parent != n {
				t.Fatal("parent link broken")
			}
		}
	}
}

func TestOntoRefDetection(t *testing.T) {
	doc := buildSampleDoc()
	asthma := doc.Root.Find(func(n *Node) bool {
		v, _ := n.Attr("displayName")
		return v == "Asthma"
	})
	if asthma == nil {
		t.Fatal("asthma node not found")
	}
	ref, ok := asthma.OntoRef()
	if !ok {
		t.Fatal("asthma node should be a code node")
	}
	if ref.Code != "195967001" || ref.System != "2.16.840.1.113883.6.96" {
		t.Errorf("ref = %v", ref)
	}
	title := doc.Root.Find(func(n *Node) bool { return n.Tag == "title" })
	if title.IsCodeNode() {
		t.Error("title should not be a code node")
	}
}

func TestOntoRefRequiresBothAttrs(t *testing.T) {
	n := &Node{Tag: "value"}
	n.SetAttr("code", "123")
	if n.IsCodeNode() {
		t.Error("code without codeSystem must not be a code node")
	}
	n.SetAttr("codeSystem", "")
	if n.IsCodeNode() {
		t.Error("empty codeSystem must not be a code node")
	}
	n.SetAttr("codeSystem", "2.16")
	if !n.IsCodeNode() {
		t.Error("code+codeSystem should be a code node")
	}
}

func TestWalkPruning(t *testing.T) {
	doc := buildSampleDoc()
	count := 0
	doc.Root.Walk(func(n *Node) bool {
		count++
		return n.Tag != "section" // do not descend into section
	})
	// ClinicalDocument, component, structuredBody, section == 4
	if count != 4 {
		t.Errorf("pruned walk visited %d nodes, want 4", count)
	}
}

func TestNodeHelpers(t *testing.T) {
	doc := buildSampleDoc()
	doc.ID = 0
	doc.AssignDewey()
	sub := doc.Root.Find(func(n *Node) bool { return n.Tag == "SubstanceAdministration" })
	if sub == nil {
		t.Fatal("SubstanceAdministration not found")
	}
	if got := len(sub.ID); got != 6 {
		t.Errorf("depth %d, want 5 edges below the root", got-1)
	}
	if !strings.HasSuffix(sub.Path(), "section/entry/SubstanceAdministration") {
		t.Errorf("Path=%q", sub.Path())
	}
	if got, want := doc.Size(), len(doc.Nodes()); got != want {
		t.Errorf("Size=%d, Nodes len=%d", got, want)
	}
	if doc.Root.Size() < 10 {
		t.Errorf("sample doc unexpectedly small: %d", doc.Root.Size())
	}
}

func TestSetAttrReplaces(t *testing.T) {
	n := &Node{Tag: "x"}
	n.SetAttr("a", "1")
	n.SetAttr("a", "2")
	if len(n.Attrs) != 1 {
		t.Fatalf("SetAttr duplicated attribute: %v", n.Attrs)
	}
	if v, _ := n.Attr("a"); v != "2" {
		t.Errorf("Attr(a)=%q want 2", v)
	}
	if _, ok := n.Attr("missing"); ok {
		t.Error("Attr(missing) reported present")
	}
}

func TestCorpus(t *testing.T) {
	c := NewCorpus()
	d1 := c.Add(buildSampleDoc())
	d2raw := buildSampleDoc()
	d2raw.Name = "second"
	d2 := c.Add(d2raw)
	if d1.ID == d2.ID {
		t.Fatal("corpus assigned duplicate IDs")
	}
	if c.Doc(d2.ID) != d2 {
		t.Error("Doc lookup failed")
	}
	if c.DocByName("second") != d2 {
		t.Error("DocByName lookup failed")
	}
	if c.Len() != 2 {
		t.Errorf("Len=%d want 2", c.Len())
	}
	// corpus-wide NodeAt
	some := d2.Nodes()[3]
	if c.NodeAt(some.ID) != some {
		t.Error("corpus NodeAt failed")
	}
	if c.NodeAt(Dewey{42}) != nil {
		t.Error("corpus NodeAt unknown doc should be nil")
	}
	st := c.Stats()
	if st.Documents != 2 || st.Elements != 2*d1.Size() {
		t.Errorf("stats = %+v", st)
	}
	if st.CodeNodes != 4 { // two code nodes per sample doc
		t.Errorf("CodeNodes=%d want 4", st.CodeNodes)
	}
	if st.AvgElems == 0 || st.AvgCodeRef != 2 {
		t.Errorf("averages = %+v", st)
	}
	if !strings.Contains(st.String(), "docs=2") {
		t.Errorf("stats string = %q", st.String())
	}
}

func TestEmptyDocument(t *testing.T) {
	d := &Document{}
	d.AssignDewey() // must not panic
	if d.Size() != 0 || d.Nodes() != nil {
		t.Error("empty document should have no nodes")
	}
	if d.NodeAt(Dewey{0}) != nil {
		t.Error("NodeAt on empty document should be nil")
	}
}
