package xmltok

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
)

// FuzzParser throws arbitrary bytes at the textual parser: it must never
// panic, and whenever it accepts a document, serializing the tokens and
// re-parsing must reproduce them (coalescing adjacent text, which
// serialization merges).
func FuzzParser(f *testing.F) {
	seeds := []string{
		`<a/>`,
		`<a x="1">text</a>`,
		`<?xml version="1.0"?><r><![CDATA[x]]><!-- c --></r>`,
		`<a>&amp;&#65;</a>`,
		`<a><![CDATA[x]]]></a>`,
		`<a x='q"q'><b/></a>`,
		`<a`, `</`, `<a></b>`, `<<>>`, "\x00\xff<",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		p := NewParser(strings.NewReader(doc), DefaultParserOptions())
		var toks []Token
		for {
			tok, err := p.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return // rejected input is fine; panics are not
			}
			toks = append(toks, tok)
		}
		if len(toks) == 0 {
			return
		}
		// Accepted: round-trip through the writer.
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, tok := range toks {
			if err := w.WriteToken(tok); err != nil {
				t.Fatalf("accepted tokens failed to serialize: %v", err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatalf("accepted document unbalanced: %v", err)
		}
		p2 := NewParser(&buf, ParserOptions{SkipWhitespaceText: false, ValidateNesting: true})
		var back []Token
		for {
			tok, err := p2.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("serialized form failed to re-parse: %v", err)
			}
			back = append(back, tok)
		}
		// The original parse may drop whitespace-only text (default
		// options); apply the same filter to the re-parse.
		back = dropWhitespaceText(back)
		toks = dropWhitespaceText(toks)
		if !reflect.DeepEqual(coalesce(toks), coalesce(back)) {
			t.Fatalf("round trip mismatch:\n in  %v\n out %v", toks, back)
		}
	})
}

func dropWhitespaceText(toks []Token) []Token {
	out := toks[:0:0]
	for _, tok := range toks {
		if tok.Kind == KindText && strings.TrimLeft(tok.Text, " \t\r\n") == "" {
			continue
		}
		out = append(out, tok)
	}
	return out
}

// FuzzCodec throws arbitrary bytes at the binary token decoder: it must
// never panic or over-allocate, and any token it accepts must re-encode
// to a decodable form.
func FuzzCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendToken(nil, Token{Kind: KindStart, Name: "a", Attrs: []Attr{{"k", "v"}}}))
	f.Add(AppendToken(nil, Token{Kind: KindRunPtr, Run: 7, Name: "x", Key: "k", HasKey: true}))
	f.Add([]byte{0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			tok, err := ReadToken(r)
			if err != nil {
				return
			}
			enc := AppendToken(nil, tok)
			back, err := ReadToken(bytes.NewReader(enc))
			if err != nil {
				t.Fatalf("accepted token failed to round-trip: %v", err)
			}
			if !reflect.DeepEqual(tok, back) {
				t.Fatalf("round trip mismatch: %+v vs %+v", tok, back)
			}
		}
	})
}
