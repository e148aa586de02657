package cda

import (
	"testing"

	"repro/internal/ontology"
	"repro/internal/xmltree"
)

func mustParse(t *testing.T, s string) *xmltree.Document {
	t.Helper()
	doc, err := xmltree.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	doc.AssignDewey()
	return doc
}

func TestExtractHyperlinksCDAIdiom(t *testing.T) {
	doc := mustParse(t, `<root>
		<value><originalText><reference value="m1"/></originalText></value>
		<text><content ID="m1">Theophylline</content></text>
	</root>`)
	edges := ExtractHyperlinks(doc)
	if len(edges) != 1 {
		t.Fatalf("edges = %d", len(edges))
	}
	if edges[0].From.Tag != "reference" || edges[0].To.Tag != "content" {
		t.Errorf("edge = %s -> %s", edges[0].From.Tag, edges[0].To.Tag)
	} // The Figure 1 document cites its medication the same way.
	fig1, err := GenerateFigure1(ontology.Figure2Fragment())
	if err != nil {
		t.Fatal(err)
	}
	if len(ExtractHyperlinks(fig1)) == 0 {
		t.Error("Figure 1 carries no reference edge")
	}
}

func TestExtractHyperlinksIDREF(t *testing.T) {
	doc := mustParse(t, `<root>
		<a IDREF="x"/>
		<b ID="x"/>
		<c IDREF="missing"/>
		<d ID="self" IDREF="self"/>
	</root>`)
	edges := ExtractHyperlinks(doc)
	if len(edges) != 1 {
		t.Fatalf("edges = %d, want 1 (dangling and self refs dropped)", len(edges))
	}
	if edges[0].From.Tag != "a" || edges[0].To.Tag != "b" {
		t.Errorf("edge = %s -> %s", edges[0].From.Tag, edges[0].To.Tag)
	}
}

func TestExtractHyperlinksNone(t *testing.T) {
	doc := mustParse(t, `<root><a/><b/></root>`)
	if edges := ExtractHyperlinks(doc); edges != nil {
		t.Errorf("edges = %v", edges)
	}
}
