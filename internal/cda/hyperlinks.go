package cda

import "repro/internal/xmltree"

// HyperlinkEdge is one intra-document ID-IDREF reference.
type HyperlinkEdge struct {
	From *xmltree.Node // the referencing element (carries the IDREF)
	To   *xmltree.Node // the anchor element (carries the ID)
}

// referenceAttrs lists the attribute names treated as IDREF sources;
// "value" is only considered on <reference> elements (the CDA idiom).
var referenceAttrs = []string{"IDREF", "idref"}

// ExtractHyperlinks finds intra-document ID-IDREF edges: an element
// with an ID attribute is an anchor; elements with an IDREF attribute —
// or <reference value="..."> elements, the CDA originalText idiom of
// Figure 1 — link to the anchor with the matching identifier. Dangling
// and self references are dropped.
func ExtractHyperlinks(doc *xmltree.Document) []HyperlinkEdge {
	if doc.Root == nil {
		return nil
	}
	anchors := make(map[string]*xmltree.Node)
	doc.Root.Walk(func(n *xmltree.Node) bool {
		if v, ok := n.Attr("ID"); ok && v != "" {
			anchors[v] = n
		}
		return true
	})
	if len(anchors) == 0 {
		return nil
	}
	var edges []HyperlinkEdge
	doc.Root.Walk(func(n *xmltree.Node) bool {
		var target string
		for _, attr := range referenceAttrs {
			if v, ok := n.Attr(attr); ok && v != "" {
				target = v
				break
			}
		}
		if target == "" && n.Tag == "reference" {
			if v, ok := n.Attr("value"); ok {
				target = v
			}
		}
		if target == "" {
			return true
		}
		if anchor, ok := anchors[target]; ok && anchor != n {
			edges = append(edges, HyperlinkEdge{From: n, To: anchor})
		}
		return true
	})
	return edges
}
