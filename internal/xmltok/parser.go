package xmltok

import (
	"bufio"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// ParserOptions configures a Parser.
type ParserOptions struct {
	// SkipWhitespaceText drops text tokens consisting entirely of XML
	// whitespace (space, tab, CR, LF). Data-centric pipelines — including
	// every sorter here — enable it so that pretty-printing never
	// influences sort behaviour.
	SkipWhitespaceText bool
	// ValidateNesting checks that every end tag matches the most recent
	// open start tag. It costs an in-memory name stack proportional to
	// document depth; disable it to honour the constant-space SAX
	// assumption of the external-memory model on adversarially deep
	// inputs.
	ValidateNesting bool
}

// DefaultParserOptions skips whitespace-only text and validates nesting.
func DefaultParserOptions() ParserOptions {
	return ParserOptions{SkipWhitespaceText: true, ValidateNesting: true}
}

// Parser is a streaming, event-based XML reader. Create one with NewParser
// and call Next until it returns io.EOF.
type Parser struct {
	r       io.ByteReader
	opts    ParserOptions
	peeked  int // -1 if none
	depth   int
	started bool // a root element has been seen
	done    bool // the root element has been closed
	// pendingEnd holds the synthesized end token of a self-closing tag.
	pendingEnd *Token
	openNames  []string // only when ValidateNesting
	textBuf    strings.Builder
}

// NewParser reads a document from r with the given options. If r is not an
// io.ByteReader it is wrapped in a bufio.Reader.
func NewParser(r io.Reader, opts ParserOptions) *Parser {
	br, ok := r.(io.ByteReader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &Parser{r: br, opts: opts, peeked: -1}
}

// Depth returns the number of currently open elements. Immediately after a
// KindStart it includes that element; immediately after a KindEnd it no
// longer does.
func (p *Parser) Depth() int { return p.depth }

// truncated maps a read failure inside a token: io.EOF (or a nil error
// when the caller saw an unexpected byte) means the document itself is cut
// short or malformed, so the diagnostic message applies. Any other error
// is the reader failing — a device fault, a canceled run — and must
// propagate unchanged so typed errors keep their errors.Is identity.
func truncated(err error, format string, args ...any) error {
	if err != nil && err != io.EOF {
		return err
	}
	return malformed(format, args...)
}

func (p *Parser) readByte() (byte, error) {
	if p.peeked >= 0 {
		b := byte(p.peeked)
		p.peeked = -1
		return b, nil
	}
	return p.r.ReadByte()
}

func (p *Parser) unread(b byte) { p.peeked = int(b) }

// Next returns the next token, or io.EOF when the document is exhausted.
func (p *Parser) Next() (Token, error) {
	if p.pendingEnd != nil {
		tok := *p.pendingEnd
		p.pendingEnd = nil
		p.closeElement(tok.Name)
		return tok, nil
	}
	for {
		b, err := p.readByte()
		if err == io.EOF {
			if p.started && !p.done {
				return Token{}, malformed("unexpected end of input with %d open elements", p.depth)
			}
			return Token{}, io.EOF
		}
		if err != nil {
			return Token{}, err
		}
		if b == '<' {
			tok, skip, err := p.parseMarkup()
			if err != nil {
				return Token{}, err
			}
			if skip {
				continue
			}
			return tok, nil
		}
		// Character data.
		if p.depth == 0 {
			// Text outside the root must be whitespace.
			if !isXMLSpace(b) {
				return Token{}, malformed("character data outside the root element")
			}
			continue
		}
		tok, err := p.parseText(b)
		if err != nil {
			return Token{}, err
		}
		if p.opts.SkipWhitespaceText && strings.TrimLeft(tok.Text, " \t\r\n") == "" {
			continue
		}
		return tok, nil
	}
}

// parseText accumulates character data starting with byte b, stopping at
// (and un-reading) the next '<'.
func (p *Parser) parseText(first byte) (Token, error) {
	p.textBuf.Reset()
	b := first
	for {
		if b == '&' {
			s, err := p.parseEntity()
			if err != nil {
				return Token{}, err
			}
			p.textBuf.WriteString(s)
		} else {
			p.textBuf.WriteByte(b)
		}
		nb, err := p.readByte()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Token{}, err
		}
		if nb == '<' {
			p.unread('<')
			break
		}
		b = nb
	}
	return Token{Kind: KindText, Text: p.textBuf.String()}, nil
}

// parseMarkup handles everything after a '<'. skip=true means the construct
// produces no token (comment, PI, doctype) — unless it is a CDATA section,
// which yields a text token.
func (p *Parser) parseMarkup() (tok Token, skip bool, err error) {
	b, err := p.readByte()
	if err != nil {
		return Token{}, false, truncated(err, "truncated markup")
	}
	switch {
	case b == '?':
		return Token{}, true, p.skipUntil("?>")
	case b == '!':
		return p.parseBang()
	case b == '/':
		return p.parseEndTag()
	default:
		p.unread(b)
		return p.parseStartTag()
	}
}

// parseBang handles <!-- comments, <![CDATA[ sections and <!DOCTYPE.
func (p *Parser) parseBang() (Token, bool, error) {
	b, err := p.readByte()
	if err != nil {
		return Token{}, false, truncated(err, "truncated <! construct")
	}
	switch b {
	case '-':
		if b2, err := p.readByte(); err != nil || b2 != '-' {
			return Token{}, false, truncated(err, "expected <!--")
		}
		return Token{}, true, p.skipUntil("-->")
	case '[':
		// <![CDATA[ ... ]]>
		const open = "CDATA["
		for i := 0; i < len(open); i++ {
			c, err := p.readByte()
			if err != nil || c != open[i] {
				return Token{}, false, truncated(err, "expected <![CDATA[")
			}
		}
		if p.depth == 0 {
			return Token{}, false, malformed("CDATA outside the root element")
		}
		text, err := p.readUntil("]]>")
		if err != nil {
			return Token{}, false, err
		}
		if p.opts.SkipWhitespaceText && strings.TrimLeft(text, " \t\r\n") == "" {
			return Token{}, true, nil
		}
		return Token{Kind: KindText, Text: text}, false, nil
	default:
		// <!DOCTYPE ...> possibly with an internal subset in [...].
		inSubset := false
		cur := b
		for {
			if cur == '[' {
				inSubset = true
			} else if cur == ']' {
				inSubset = false
			} else if cur == '>' && !inSubset {
				return Token{}, true, nil
			}
			cur, err = p.readByte()
			if err != nil {
				return Token{}, false, truncated(err, "truncated <! declaration")
			}
		}
	}
}

func (p *Parser) parseStartTag() (Token, bool, error) {
	if p.done {
		return Token{}, false, malformed("second root element")
	}
	name, err := p.readName()
	if err != nil {
		return Token{}, false, err
	}
	tok := Token{Kind: KindStart, Name: name}
	for {
		b, err := p.skipSpace()
		if err != nil {
			return Token{}, false, truncated(err, "truncated start tag <%s", name)
		}
		switch b {
		case '>':
			p.openElement(name)
			return tok, false, nil
		case '/':
			if b2, err := p.readByte(); err != nil || b2 != '>' {
				return Token{}, false, truncated(err, "expected /> in <%s", name)
			}
			p.openElement(name)
			p.pendingEnd = &Token{Kind: KindEnd, Name: name}
			return tok, false, nil
		default:
			p.unread(b)
			attr, err := p.readAttr()
			if err != nil {
				return Token{}, false, err
			}
			tok.Attrs = append(tok.Attrs, attr)
		}
	}
}

func (p *Parser) parseEndTag() (Token, bool, error) {
	name, err := p.readName()
	if err != nil {
		return Token{}, false, err
	}
	b, err := p.skipSpace()
	if err != nil || b != '>' {
		return Token{}, false, truncated(err, "malformed end tag </%s", name)
	}
	if p.depth == 0 {
		return Token{}, false, malformed("end tag </%s> with no open element", name)
	}
	if err := p.closeElement(name); err != nil {
		return Token{}, false, err
	}
	return Token{Kind: KindEnd, Name: name}, false, nil
}

func (p *Parser) openElement(name string) {
	p.depth++
	p.started = true
	if p.opts.ValidateNesting {
		p.openNames = append(p.openNames, name)
	}
}

func (p *Parser) closeElement(name string) error {
	if p.opts.ValidateNesting {
		want := p.openNames[len(p.openNames)-1]
		if want != name {
			return malformed("end tag </%s> does not match open <%s>", name, want)
		}
		p.openNames = p.openNames[:len(p.openNames)-1]
	}
	p.depth--
	if p.depth == 0 {
		p.done = true
	}
	return nil
}

// readName reads an XML name (first byte already positioned at its start).
func (p *Parser) readName() (string, error) {
	var sb strings.Builder
	b, err := p.readByte()
	if err != nil || !isNameStart(b) {
		return "", truncated(err, "expected a name")
	}
	sb.WriteByte(b)
	for {
		b, err = p.readByte()
		if err != nil {
			break
		}
		if !isNameByte(b) {
			p.unread(b)
			break
		}
		sb.WriteByte(b)
	}
	return sb.String(), nil
}

// readAttr reads name="value" (either quote style), entity-decoding the
// value.
func (p *Parser) readAttr() (Attr, error) {
	name, err := p.readName()
	if err != nil {
		return Attr{}, err
	}
	b, err := p.skipSpace()
	if err != nil || b != '=' {
		return Attr{}, truncated(err, "attribute %s missing '='", name)
	}
	quote, err := p.skipSpace()
	if err != nil || (quote != '"' && quote != '\'') {
		return Attr{}, truncated(err, "attribute %s missing quote", name)
	}
	var sb strings.Builder
	for {
		b, err := p.readByte()
		if err != nil {
			return Attr{}, truncated(err, "unterminated value for attribute %s", name)
		}
		if b == quote {
			break
		}
		if b == '&' {
			s, err := p.parseEntity()
			if err != nil {
				return Attr{}, err
			}
			sb.WriteString(s)
			continue
		}
		if b == '<' {
			return Attr{}, malformed("raw '<' in value of attribute %s", name)
		}
		sb.WriteByte(b)
	}
	return Attr{Name: name, Value: sb.String()}, nil
}

// parseEntity decodes an entity reference whose '&' has been consumed.
func (p *Parser) parseEntity() (string, error) {
	var sb strings.Builder
	for {
		b, err := p.readByte()
		if err != nil {
			return "", truncated(err, "unterminated entity reference")
		}
		if b == ';' {
			break
		}
		if sb.Len() > 12 {
			return "", malformed("entity reference too long: &%s...", sb.String())
		}
		sb.WriteByte(b)
	}
	ent := sb.String()
	switch ent {
	case "amp":
		return "&", nil
	case "lt":
		return "<", nil
	case "gt":
		return ">", nil
	case "quot":
		return `"`, nil
	case "apos":
		return "'", nil
	}
	if strings.HasPrefix(ent, "#") {
		numeric := ent[1:]
		base := 10
		if strings.HasPrefix(numeric, "x") || strings.HasPrefix(numeric, "X") {
			numeric, base = numeric[1:], 16
		}
		n, err := strconv.ParseUint(numeric, base, 32)
		if err != nil || !utf8.ValidRune(rune(n)) {
			return "", malformed("bad character reference &%s;", ent)
		}
		return string(rune(n)), nil
	}
	return "", malformed("unknown entity &%s;", ent)
}

// skipSpace consumes XML whitespace and returns the first non-space byte.
func (p *Parser) skipSpace() (byte, error) {
	for {
		b, err := p.readByte()
		if err != nil {
			return 0, err
		}
		if !isXMLSpace(b) {
			return b, nil
		}
	}
}

// skipUntil consumes input through the first occurrence of the marker.
func (p *Parser) skipUntil(marker string) error {
	_, err := p.readUntil(marker)
	return err
}

// readUntil returns input up to (excluding) the first occurrence of the
// marker, consuming the marker too. The marker is found by checking the
// accumulated input for it as a suffix whenever the marker's last byte
// arrives, so overlapping prefixes ("]]]>" ends a CDATA section holding
// "]") are handled at O(len(marker)) cost per such byte.
func (p *Parser) readUntil(marker string) (string, error) {
	var sb strings.Builder
	last := marker[len(marker)-1]
	for {
		b, err := p.readByte()
		if err != nil {
			return "", truncated(err, "missing %q terminator", marker)
		}
		sb.WriteByte(b)
		if b != last {
			continue
		}
		if s := sb.String(); strings.HasSuffix(s, marker) {
			return s[:len(s)-len(marker)], nil
		}
	}
}

func isXMLSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\r' || b == '\n'
}

func isNameStart(b byte) bool {
	return b == '_' || b == ':' ||
		('a' <= b && b <= 'z') || ('A' <= b && b <= 'Z') || b >= 0x80
}

func isNameByte(b byte) bool {
	return isNameStart(b) || b == '-' || b == '.' || ('0' <= b && b <= '9')
}
