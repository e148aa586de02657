package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync/atomic"
	"unicode/utf8"
)

// A /search 200 body is a head, a middle and a per-request tail:
//
//	{"v":1,"query":<q>  <middle>  <handler_us>}[,"trace_id":<id>][,"trace":<tree>]}\n
//
// The middle is what encoding/json writes for the response with query
// "" and handler_us 0 and no trace_id or trace, cut after
// searchBodyHead and before searchBodyTail. For one cached outcome it
// is the same bytes on every plain request, so the outcome keeps it
// (renderMemo) and later hits splice their own query, handler_us and
// trace_id around it without encoding anything.
const (
	searchBodyHead = `{"v":1,"query":""`
	searchBodyTail = "0}}\n"
)

var errSearchBodyShape = errors.New("search body does not start with " + searchBodyHead + " and end with handler_us 0")

// renderMemo is the rendered middle of an outcome's plain /search body.
// Only cacheable outcomes carry one, so it rides the result-cache entry
// and dies with it (eviction, TTL, a reload's epoch). The first render
// only counts; a later plain render stores the middle it encoded, so a
// miss that is never hit keeps no bytes. Racing renders store identical
// bytes and the last store wins.
type renderMemo struct {
	renders atomic.Uint32
	middle  atomic.Pointer[[]byte]
}

// load returns the stored middle, nil before the first store.
func (m *renderMemo) load() []byte {
	if m == nil {
		return nil
	}
	if p := m.middle.Load(); p != nil {
		return *p
	}
	return nil
}

// rendered counts one render and reports whether an earlier one was
// counted (false for outcomes without a memo).
func (m *renderMemo) rendered() bool {
	return m != nil && m.renders.Add(1) > 1
}

// store keeps a copy of middle.
func (m *renderMemo) store(middle []byte) {
	b := bytes.Clone(middle)
	m.middle.Store(&b)
}

// writeSearch answers a /search 200 for rep in one pooled buffer. The
// middle comes from out's memo when one is stored, otherwise from
// rep.response, encoded once; a plain render after the outcome's first
// keeps it. An encode failure (a NaN score) is the JSON 500 of
// writeJSON and stores nothing.
func writeSearch(w http.ResponseWriter, out SearchOutcome, rep *searchReply) {
	buf := respBufs.Get().(*bytes.Buffer)
	buf.Reset()
	buf.WriteString(`{"v":1,"query":`)
	buf.Write(appendJSONString(buf.AvailableBuffer(), rep.query))
	plain := rep.plain()
	var memo []byte
	if plain {
		memo = out.memo.load()
	}
	if memo != nil {
		buf.Write(memo)
	} else {
		keep := out.memo.rendered() && plain
		head := buf.Len()
		if err := appendMiddle(buf, rep.response(out)); err != nil {
			writeEncodeFailure(w, buf, err)
			return
		}
		if keep {
			out.memo.store(buf.Bytes()[head:])
		}
	}
	buf.Write(strconv.AppendInt(buf.AvailableBuffer(), rep.handlerUS, 10))
	buf.WriteByte('}')
	if rep.traceID != "" {
		buf.WriteString(`,"trace_id":`)
		buf.Write(appendJSONString(buf.AvailableBuffer(), rep.traceID))
	}
	if rep.trace != nil {
		buf.WriteString(`,"trace":`)
		if err := json.NewEncoder(buf).Encode(rep.trace); err != nil {
			writeEncodeFailure(w, buf, err)
			return
		}
		buf.Truncate(buf.Len() - 1) // Encode's newline
	}
	buf.WriteString("}\n")
	writeBody(w, http.StatusOK, buf)
}

// appendMiddle encodes resp (query "", handler_us 0, no trace_id or
// trace) after buf's contents and keeps only its middle.
func appendMiddle(buf *bytes.Buffer, resp SearchResponse) error {
	head := buf.Len()
	if err := json.NewEncoder(buf).Encode(resp); err != nil {
		return err
	}
	enc := buf.Bytes()[head:]
	if !bytes.HasPrefix(enc, []byte(searchBodyHead)) || !bytes.HasSuffix(enc, []byte(searchBodyTail)) {
		return errSearchBodyShape
	}
	n := copy(enc, enc[len(searchBodyHead):len(enc)-len(searchBodyTail)])
	buf.Truncate(head + n)
	return nil
}

// appendJSONString appends s as a JSON string exactly as encoding/json
// writes it: HTML-safe (<, > and & escaped), U+2028 and U+2029 escaped,
// and each invalid UTF-8 byte as \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
