package xmltok

import (
	"fmt"
	"io"
)

// Writer serializes a token stream back into a textual XML document. It
// tracks nesting so that optional indentation is correct, and escapes text
// and attribute values so that Parse(Write(tokens)) round-trips. Each
// token is built in one reused buffer and reaches the underlying writer
// as a single Write.
type Writer struct {
	w      io.Writer
	indent string // per-level indentation; empty means compact output
	depth  int
	// lastKind and textInRow let indented output collapse <a>text</a>
	// onto one line.
	lastKind  Kind
	wroteAny  bool
	textInRow bool
	buf       []byte
	err       error
}

// NewWriter writes compact XML (no added whitespace) to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w, lastKind: KindEnd} }

// NewIndentWriter writes XML indented with the given unit string per level.
func NewIndentWriter(w io.Writer, indent string) *Writer {
	return &Writer{w: w, indent: indent, lastKind: KindEnd}
}

// flush writes the buffered token and resets the buffer, dropping it when
// one long token grew it past a block.
func (w *Writer) flush() {
	_, w.err = w.w.Write(w.buf)
	w.buf = w.buf[:0]
	if cap(w.buf) > scratchKeep {
		w.buf = nil
	}
}

func (w *Writer) newlineIndent(depth int) {
	if w.indent == "" {
		return
	}
	if w.wroteAny {
		w.buf = append(w.buf, '\n')
	}
	for i := 0; i < depth; i++ {
		w.buf = append(w.buf, w.indent...)
	}
}

// WriteToken appends one token to the document. Run-pointer tokens are
// rejected — they are internal to the binary codec and must be resolved
// before serialization.
func (w *Writer) WriteToken(t Token) error {
	if w.err != nil {
		return w.err
	}
	switch t.Kind {
	case KindStart:
		w.newlineIndent(w.depth)
		w.buf = append(w.buf, '<')
		w.buf = append(w.buf, t.Name...)
		for _, a := range t.Attrs {
			w.buf = append(w.buf, ' ')
			w.buf = append(w.buf, a.Name...)
			w.buf = append(w.buf, '=', '"')
			w.buf = appendEscaped(w.buf, a.Value, true)
			w.buf = append(w.buf, '"')
		}
		w.buf = append(w.buf, '>')
		w.depth++
	case KindEnd:
		w.depth--
		if w.depth < 0 {
			return fmt.Errorf("xmltok: end tag </%s> with no open element", t.Name)
		}
		// Keep </a> on the same line when the element contained only
		// text (or nothing).
		if w.lastKind != KindStart && !w.textInRow {
			w.newlineIndent(w.depth)
		}
		w.buf = append(w.buf, '<', '/')
		w.buf = append(w.buf, t.Name...)
		w.buf = append(w.buf, '>')
	case KindText:
		w.buf = appendEscaped(w.buf, t.Text, false)
	default:
		return fmt.Errorf("xmltok: cannot serialize %v token", t.Kind)
	}
	w.flush()
	w.textInRow = t.Kind == KindText
	w.lastKind = t.Kind
	w.wroteAny = true
	return w.err
}

// Depth returns the number of currently open elements.
func (w *Writer) Depth() int { return w.depth }

// Close verifies the document is balanced and flushes the final newline in
// indented mode. It does not close the underlying writer.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.depth != 0 {
		return fmt.Errorf("xmltok: document closed with %d open elements", w.depth)
	}
	if w.indent != "" && w.wroteAny {
		w.buf = append(w.buf, '\n')
		w.flush()
	}
	return w.err
}

// appendEscaped appends s with the markup characters replaced by entity
// references: &, < and > in text; &, < and " in an attribute value.
func appendEscaped(dst []byte, s string, attr bool) []byte {
	last := 0
	for i := 0; i < len(s); i++ {
		var ref string
		switch s[i] {
		case '&':
			ref = "&amp;"
		case '<':
			ref = "&lt;"
		case '>':
			if attr {
				continue
			}
			ref = "&gt;"
		case '"':
			if !attr {
				continue
			}
			ref = "&quot;"
		default:
			continue
		}
		dst = append(dst, s[last:i]...)
		dst = append(dst, ref...)
		last = i + 1
	}
	return append(dst, s[last:]...)
}
