package xmltok

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// FuzzParser throws arbitrary bytes at the textual parser: it must never
// panic, and whenever it accepts a document, serializing the tokens and
// re-parsing must reproduce them (coalescing adjacent text, which
// serialization merges). Every input is also parsed through windows of
// 1–7 bytes, with and without a reader error after the last byte, and
// must give the same tokens and the same outcome as through one buffer.
func FuzzParser(f *testing.F) {
	seeds := []string{
		`<a/>`,
		`<a x="1">text</a>`,
		`<?xml version="1.0"?><r><![CDATA[x]]><!-- c --></r>`,
		`<a>&amp;&#65;</a>`,
		`<a><![CDATA[x]]]></a>`,
		`<a x='q"q'><b/></a>`,
		`<a`, `</`, `<a></b>`, `<<>>`, "\x00\xff<",
		// Constructs longer than a window, so they straddle window
		// boundaries: a name, entities, a CDATA terminator, a quoted value.
		`<element_name another-name="v"></element_name>`,
		`<a>x&amp;y&#x4E16;&quot;z</a>`,
		`<a><![CDATA[0123]]]]]></a>`,
		`<a key="0123456789" k2='01&lt;23456'/>`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		toks, err := parseTokens(NewParser(strings.NewReader(doc), DefaultParserOptions()))
		checkWindowed(t, doc, toks, err, nil)
		boomToks, boomErr := parseTokens(NewParser(io.MultiReader(strings.NewReader(doc), iotest.ErrReader(errBoom)), DefaultParserOptions()))
		checkWindowed(t, doc, boomToks, boomErr, errBoom)
		if err != io.EOF || len(toks) == 0 {
			return // rejected input is fine; panics are not
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
		back, err := parseTokens(NewParser(&buf, ParserOptions{SkipWhitespaceText: false, ValidateNesting: true}))
		if err != io.EOF {
			t.Fatalf("serialized form failed to re-parse: %v", err)
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

var errBoom = errors.New("boom")

// parseTokens collects tokens until the first error, which is returned
// (io.EOF for a complete document).
func parseTokens(p *Parser) ([]Token, error) {
	var toks []Token
	for {
		tok, err := p.Next()
		if err != nil {
			return toks, err
		}
		toks = append(toks, tok)
	}
}

// checkWindowed parses doc through windows of 1–7 bytes, sizes derived
// from doc, ending in readErr (io.EOF when nil), and requires the tokens
// and outcome class found through one buffer.
func checkWindowed(t *testing.T, doc string, want []Token, wantErr, readErr error) {
	t.Helper()
	sizes := []int{1}
	for i := 0; i < len(doc) && i < 8; i++ {
		sizes = append(sizes, 1+int(doc[i]+byte(i))%7)
	}
	src := &windowReader{data: []byte(doc), sizes: sizes, err: readErr}
	got, err := parseTokens(NewParser(src, DefaultParserOptions()))
	if src.overrun {
		t.Fatalf("parser consumed past the window")
	}
	if outcome(err) != outcome(wantErr) {
		t.Fatalf("windows %v: outcome %v, through one buffer %v", sizes, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("windows %v: tokens\n %v\nthrough one buffer\n %v", sizes, got, want)
	}
}

// outcome classes a parse's final error.
func outcome(err error) string {
	switch {
	case err == io.EOF:
		return "eof"
	case errors.Is(err, ErrMalformed):
		return "malformed"
	case errors.Is(err, errBoom):
		return "reader error"
	default:
		return fmt.Sprintf("unexpected error %v", err)
	}
}

// windowReader is a window source over data whose windows cycle through
// the given sizes. It records the bytes consumed and any Consume beyond
// the last window; after the data it returns err, or io.EOF when nil.
type windowReader struct {
	data     []byte
	sizes    []int
	err      error
	calls    int
	consumed int
	last     int // length of the last window handed out
	overrun  bool
}

func (w *windowReader) Window() ([]byte, error) {
	rest := w.data[w.consumed:]
	if len(rest) == 0 {
		w.last = 0
		if w.err != nil {
			return nil, w.err
		}
		return nil, io.EOF
	}
	n := min(w.sizes[w.calls%len(w.sizes)], len(rest))
	w.calls++
	w.last = n
	return rest[:n], nil
}

func (w *windowReader) Consume(n int) {
	if n > w.last {
		w.overrun = true
	}
	w.last -= n
	w.consumed += n
}

// Read makes windowReader an io.Reader, as NewParser's signature asks;
// the parser itself only calls Window and Consume.
func (w *windowReader) Read(p []byte) (int, error) {
	win, err := w.Window()
	n := copy(p, win)
	w.Consume(n)
	return n, err
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
