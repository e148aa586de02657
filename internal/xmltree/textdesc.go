package xmltree

import (
	"strings"
	"unicode"
)

// DefaultExcludedAttrs lists the attributes an expert would exclude from
// textual descriptions (paper Section III: "some attribute values like
// code strings are not included ... since these are unlikely to be used
// in a query keyword"). They are machine identifiers, not clinical
// language.
var DefaultExcludedAttrs = map[string]bool{
	"code":           true,
	"codeSystem":     true,
	"codeSystemName": true,
	"root":           true,
	"extension":      true,
	"templateId":     true,
	"typeCode":       true,
	"classCode":      true,
	"moodCode":       true,
	"type":           true,
	"ID":             true,
	"xsi:type":       true,
	"schemaLocation": true,
}

// TextOptions controls textual-description extraction.
type TextOptions struct {
	// ExcludedAttrs names attributes whose values (and names) are left out
	// of the textual description. Nil means DefaultExcludedAttrs.
	ExcludedAttrs map[string]bool
	// IncludeTag includes the element's tag name in the description.
	IncludeTag bool
}

// DefaultTextOptions matches the paper's model: tag name, non-excluded
// attribute names and values, and text content.
func DefaultTextOptions() TextOptions {
	return TextOptions{ExcludedAttrs: DefaultExcludedAttrs, IncludeTag: true}
}

// TextDescription builds the textual description of a node: the
// concatenation of its tag name, attribute names and values (minus the
// excluded set), and its direct text content. Descendant text is NOT
// included — descendants contribute their own node scores which are then
// propagated upward by the ranking model.
func TextDescription(n *Node, opt TextOptions) string {
	excl := opt.ExcludedAttrs
	if excl == nil {
		excl = DefaultExcludedAttrs
	}
	var b strings.Builder
	if opt.IncludeTag && n.Tag != "" {
		b.WriteString(n.Tag)
	}
	for _, a := range n.Attrs {
		if excl[a.Name] {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(a.Name)
		if a.Value != "" {
			b.WriteByte(' ')
			b.WriteString(a.Value)
		}
	}
	if n.Text != "" {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(n.Text)
	}
	return b.String()
}

// Tokenize splits text into lowercase word tokens. A token is a maximal
// run of letters or digits; everything else separates tokens. CamelCase
// boundaries inside XML tag names (e.g. "SubstanceAdministration") are
// also treated as separators so that tag vocabulary is searchable by its
// natural words.
//
// The tokens are written, space-separated, into one buffer and returned
// as slices of it, so a call allocates the buffer and the slice, not
// one string per token.
func Tokenize(text string) []string {
	var cur strings.Builder
	cur.Grow(len(text))
	open := false // the last token written may still grow
	write := func(r rune) {
		if !open && cur.Len() > 0 {
			cur.WriteByte(' ')
		}
		open = true
		cur.WriteRune(r)
	}
	// Two boundary signals keep acronym handling AND idempotence:
	// prevInLower drives the classic camelCase split on the input
	// ("displayName" -> display, name; "HL7" stays hl7); prevOutLower
	// drives the same rule as a re-tokenization would see it — some
	// uppercase letters have no lowercase mapping and stay uppercase in
	// the output, so a split must also happen after a rune that DID
	// lowercase ("Aϔ" -> a, ϔ), or Tokenize would not be idempotent.
	prevInLower, prevOutLower := false, false
	for _, r := range text {
		switch {
		case unicode.IsLetter(r):
			lower := unicode.ToLower(r)
			outUpper := unicode.IsUpper(lower)
			if unicode.IsUpper(r) && (prevInLower || (outUpper && prevOutLower)) {
				open = false
			}
			write(lower)
			prevInLower = unicode.IsLower(r)
			prevOutLower = unicode.IsLower(lower)
		case unicode.IsDigit(r):
			write(r)
			prevInLower, prevOutLower = false, false
		default:
			open = false
			prevInLower, prevOutLower = false, false
		}
	}
	if cur.Len() == 0 {
		return nil
	}
	return strings.Split(cur.String(), " ")
}

// NodeTokens tokenizes the node's textual description under the default
// options.
func NodeTokens(n *Node) []string {
	return Tokenize(TextDescription(n, DefaultTextOptions()))
}

// ContainsKeyword reports whether the node's textual description
// contains the keyword (case-insensitive whole-token match). A keyword
// may be a quoted phrase of several words, in which case the tokens must
// appear contiguously.
func ContainsKeyword(n *Node, keyword string) bool {
	want := Tokenize(keyword)
	if len(want) == 0 {
		return false
	}
	have := NodeTokens(n)
	return containsPhrase(have, want)
}

func containsPhrase(have, want []string) bool {
	if len(want) == 0 || len(have) < len(want) {
		return false
	}
outer:
	for i := 0; i+len(want) <= len(have); i++ {
		for j, w := range want {
			if have[i+j] != w {
				continue outer
			}
		}
		return true
	}
	return false
}
