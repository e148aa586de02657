package xmltree

import "testing"

func FuzzParseDewey(f *testing.F) {
	for _, s := range []string{"0", "1.2.3", "", "a", "1..2", "-1", "999999999999999999999"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d, err := ParseDewey(s)
		if err != nil {
			return
		}
		// Valid parses must round-trip through String.
		back, err := ParseDewey(d.String())
		if err != nil || !back.Equal(d) {
			t.Fatalf("round trip %q -> %v -> %v (%v)", s, d, back, err)
		}
	})
}

func FuzzTokenize(f *testing.F) {
	for _, s := range []string{"", "Asthma Attack", "HL7-CDA v2", "日本語 test", "a1b2C3"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		toks := Tokenize(s)
		for _, tok := range toks {
			if tok == "" {
				t.Fatal("empty token")
			}
		}
		// Idempotence over joined output.
		joined := ""
		for i, tok := range toks {
			if i > 0 {
				joined += " "
			}
			joined += tok
		}
		again := Tokenize(joined)
		if len(again) != len(toks) {
			t.Fatalf("not idempotent: %v vs %v", toks, again)
		}
		for i := range toks {
			if toks[i] != again[i] {
				t.Fatalf("not idempotent at %d: %v vs %v", i, toks, again)
			}
		}
	})
}

func FuzzParse(f *testing.F) {
	f.Add("<a><b>text</b></a>")
	f.Add("")
	f.Add("<a attr=\"v\"/>")
	f.Add("<ClinicalDocument><code code=\"1\" codeSystem=\"2\"/></ClinicalDocument>")
	f.Add("<a>&lt;nested&gt;</a>")
	f.Fuzz(func(t *testing.T, s string) {
		doc, err := ParseString(s)
		if err != nil {
			return
		}
		// Valid parses must serialize and re-parse to the same shape.
		out := XMLString(doc.Root)
		doc2, err := ParseString(out)
		if err != nil {
			t.Fatalf("re-parse of serialized output failed: %v\n%s", err, out)
		}
		if doc.Root.Size() != doc2.Root.Size() {
			t.Fatalf("size changed: %d vs %d", doc.Root.Size(), doc2.Root.Size())
		}
	})
}
