package xmltree

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Bronchial Structure", []string{"bronchial", "structure"}},
		{"SubstanceAdministration", []string{"substance", "administration"}},
		{"supraventricular arrhythmia", []string{"supraventricular", "arrhythmia"}},
		{"20 mg every other day.", []string{"20", "mg", "every", "other", "day"}},
		{"", nil},
		{"  --  ", nil},
		{"HL7-CDA", []string{"hl7", "cda"}},
		{"displayName", []string{"display", "name"}},
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// Property: tokens are lowercase, non-empty, and contain only letters
// or digits.
func TestQuickTokenizeWellFormed(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok == "" {
				return false
			}
			if tok != strings.ToLower(tok) {
				return false
			}
			for _, r := range tok {
				isLetter := (r >= 'a' && r <= 'z') || r > 127
				isDigit := r >= '0' && r <= '9'
				if !isLetter && !isDigit && !strings.ContainsRune(tok, r) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: tokenizing is idempotent over its own joined output.
func TestQuickTokenizeIdempotent(t *testing.T) {
	f := func(s string) bool {
		once := Tokenize(s)
		twice := Tokenize(strings.Join(once, " "))
		return reflect.DeepEqual(once, twice)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// referenceTokenize is Tokenize as it was written before the tokens
// shared one buffer — one string built per token — kept as its oracle.
func referenceTokenize(text string) []string {
	var tokens []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			tokens = append(tokens, cur.String())
			cur.Reset()
		}
	}
	prevInLower, prevOutLower := false, false
	for _, r := range text {
		switch {
		case unicode.IsLetter(r):
			lower := unicode.ToLower(r)
			if unicode.IsUpper(r) && (prevInLower || (unicode.IsUpper(lower) && prevOutLower)) {
				flush()
			}
			cur.WriteRune(lower)
			prevInLower, prevOutLower = unicode.IsLower(r), unicode.IsLower(lower)
		case unicode.IsDigit(r):
			cur.WriteRune(r)
			prevInLower, prevOutLower = false, false
		default:
			flush()
			prevInLower, prevOutLower = false, false
		}
	}
	flush()
	return tokens
}

// Property: Tokenize returns exactly the reference's tokens — on random
// strings, on strings of letters whose case mapping changes their
// length or leaves them upper case, and on the camelCase cases above.
func TestQuickTokenizeMatchesReference(t *testing.T) {
	runes := []rune("aZ9 -_.\u0130\u023a\u03d4\u1e9e\u00dfÅé日本Ⅻ\t")
	f := func(s string, picks []uint8) bool {
		var b strings.Builder
		for _, p := range picks {
			b.WriteRune(runes[int(p)%len(runes)])
		}
		for _, in := range []string{s, b.String(), "HL7-CDA displayName SubstanceAdministration"} {
			if got, want := Tokenize(in), referenceTokenize(in); !reflect.DeepEqual(got, want) {
				t.Logf("Tokenize(%q) = %q, reference %q", in, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestTextDescriptionExcludesCodes(t *testing.T) {
	n := &Node{Tag: "value", Text: ""}
	n.SetAttr("code", "195967001")
	n.SetAttr("codeSystem", "2.16.840.1.113883.6.96")
	n.SetAttr("codeSystemName", "SNOMED CT")
	n.SetAttr("displayName", "Asthma")
	desc := TextDescription(n, DefaultTextOptions())
	if strings.Contains(desc, "195967001") {
		t.Errorf("description leaks concept code: %q", desc)
	}
	if strings.Contains(desc, "2.16.840") {
		t.Errorf("description leaks code system: %q", desc)
	}
	if !strings.Contains(desc, "Asthma") {
		t.Errorf("description lost displayName: %q", desc)
	}
	if !strings.HasPrefix(desc, "value") {
		t.Errorf("description lost tag: %q", desc)
	}
}

func TestTextDescriptionOptions(t *testing.T) {
	n := &Node{Tag: "title", Text: "Medications"}
	d := TextDescription(n, TextOptions{IncludeTag: false})
	if d != "Medications" {
		t.Errorf("IncludeTag=false -> %q", d)
	}
	d = TextDescription(n, TextOptions{IncludeTag: true})
	if d != "title Medications" {
		t.Errorf("IncludeTag=true -> %q", d)
	}
	// Custom exclusion set overrides the default.
	n2 := &Node{Tag: "x"}
	n2.SetAttr("code", "abc")
	d = TextDescription(n2, TextOptions{ExcludedAttrs: map[string]bool{}, IncludeTag: false})
	if !strings.Contains(d, "abc") {
		t.Errorf("empty exclusion set should keep code: %q", d)
	}
}

func TestContainsKeyword(t *testing.T) {
	n := &Node{Tag: "value"}
	n.SetAttr("displayName", "Disorder of Bronchus")
	cases := []struct {
		kw   string
		want bool
	}{
		{"bronchus", true},
		{"Bronchus", true},
		{"disorder of bronchus", true},
		{"of bronchus", true},
		{"bronchial", false},
		{"disorder bronchus", false}, // not contiguous
		{"", false},
	}
	for _, c := range cases {
		if got := ContainsKeyword(n, c.kw); got != c.want {
			t.Errorf("ContainsKeyword(%q) = %v, want %v", c.kw, got, c.want)
		}
	}
}

func TestContainsPhraseEdges(t *testing.T) {
	if containsPhrase([]string{"a"}, []string{"a", "b"}) {
		t.Error("phrase longer than text must not match")
	}
	if !containsPhrase([]string{"x", "a", "b", "y"}, []string{"a", "b"}) {
		t.Error("interior phrase should match")
	}
	if containsPhrase(nil, nil) {
		t.Error("empty phrase must not match")
	}
}
