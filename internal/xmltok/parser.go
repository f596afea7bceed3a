package xmltok

import (
	"bufio"
	"bytes"
	"io"
	"strconv"
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

// windowSource is a buffered reader the parser scans in place. Window
// returns the buffered bytes not yet consumed, refilling first when there
// are none; it returns a non-empty window or an error. The window stays
// valid until the next Window call. Consume(n) marks the first n bytes of
// the window as read. em.CountingReader implements it over its frame.
type windowSource interface {
	Window() ([]byte, error)
	Consume(n int)
}

// bufioWindow adapts a *bufio.Reader through Peek and Discard, so the
// parser scans the bufio buffer itself.
type bufioWindow struct{ r *bufio.Reader }

func (w bufioWindow) Window() ([]byte, error) {
	if w.r.Buffered() == 0 {
		if _, err := w.r.Peek(1); err != nil {
			return nil, err
		}
	}
	return w.r.Peek(w.r.Buffered())
}

// Consume discards n ≤ Buffered() bytes, which cannot fail.
func (w bufioWindow) Consume(n int) { _, _ = w.r.Discard(n) }

const (
	// maxInterned and maxInternLen cap the per-parser name table
	// (DESIGN §7): element and attribute names are vocabulary-sized in
	// data-centric documents, and the caps keep an adversarial one from
	// growing the table without bound.
	maxInterned  = 1024
	maxInternLen = 256
	// scratchKeep is the largest scratch buffer kept between tokens (one
	// default block); a larger one, grown by a long value that straddles
	// windows, is dropped after use.
	scratchKeep = 64 << 10
)

// Parser is a streaming, event-based XML reader. Create one with NewParser
// and call Next until it returns io.EOF.
//
// The parser scans its source's buffered window in place and never reads
// ahead of the token it returns: after every Next the source has consumed
// exactly the bytes up to the end of that token, so counted input
// (em.CountingReader's charges and byte total) does not depend on the
// window sizes.
type Parser struct {
	src  windowSource
	opts ParserOptions
	win  []byte // current window; win[:pos] is scanned but not yet consumed
	pos  int

	depth   int
	started bool // a root element has been seen
	done    bool // the root element has been closed
	// pendingEnd marks the synthesized end token of a self-closing tag.
	pendingEnd  bool
	pendingName string
	openNames   []string // only when ValidateNesting

	// scratch assembles a value that straddles windows or holds entity
	// references; attrs collects a start tag's attributes before one
	// exact-size copy goes into the token.
	scratch []byte
	attrs   []Attr
	names   map[string]string
	recent  [64]string
}

// NewParser reads a document from r with the given options. An
// em.CountingReader or a *bufio.Reader is scanned in place; any other
// reader is wrapped in a bufio.Reader.
func NewParser(r io.Reader, opts ParserOptions) *Parser {
	var src windowSource
	switch r := r.(type) {
	case windowSource:
		src = r
	case *bufio.Reader:
		src = bufioWindow{r}
	default:
		src = bufioWindow{bufio.NewReader(r)}
	}
	return &Parser{src: src, opts: opts, names: make(map[string]string)}
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

// commit consumes the scanned bytes from the source.
func (p *Parser) commit() {
	if p.pos > 0 {
		p.src.Consume(p.pos)
	}
	p.win, p.pos = p.win[p.pos:], 0
}

// more consumes the whole window and fetches the next one. Callers copy
// out any bytes of the window they still need first.
func (p *Parser) more() error {
	p.commit()
	win, err := p.src.Window()
	if len(win) == 0 {
		if err == nil {
			err = io.ErrNoProgress
		}
		p.win = nil
		return err
	}
	p.win = win
	return nil
}

// peek returns the byte at the cursor without advancing.
func (p *Parser) peek() (byte, error) {
	if p.pos == len(p.win) {
		if err := p.more(); err != nil {
			return 0, err
		}
	}
	return p.win[p.pos], nil
}

// next returns the byte at the cursor and advances past it.
func (p *Parser) next() (byte, error) {
	b, err := p.peek()
	if err == nil {
		p.pos++
	}
	return b, err
}

// Next returns the next token, or io.EOF when the document is exhausted.
func (p *Parser) Next() (Token, error) {
	var tok Token
	err := p.token(&tok)
	p.commit()
	// The window is refetched on the next call: the source may refill its
	// buffer in between.
	p.win = nil
	if cap(p.scratch) > scratchKeep {
		p.scratch = nil
	}
	if err != nil {
		return Token{}, err
	}
	return tok, nil
}

// token parses the next token into tok, which is left partly filled on
// error. Tokens are built in place: Token is large enough that returning
// it by value through each parse function shows up in profiles.
func (p *Parser) token(tok *Token) error {
	if p.pendingEnd {
		p.pendingEnd = false
		tok.Kind, tok.Name = KindEnd, p.pendingName
		p.pendingName = ""
		return p.closeElement(tok.Name)
	}
	for {
		b, err := p.peek()
		if err == io.EOF {
			if p.started && !p.done {
				return malformed("unexpected end of input with %d open elements", p.depth)
			}
			return io.EOF
		}
		if err != nil {
			return err
		}
		if b == '<' {
			p.pos++
			skip, err := p.parseMarkup(tok)
			if err != nil || !skip {
				return err
			}
			continue
		}
		if p.depth == 0 {
			// Text outside the root must be whitespace.
			if !isXMLSpace(b) {
				return malformed("character data outside the root element")
			}
			p.pos++
			continue
		}
		text, err := p.scanText()
		if err != nil {
			return err
		}
		if p.opts.SkipWhitespaceText && allSpace(text) {
			continue
		}
		tok.Kind, tok.Text = KindText, string(text)
		return nil
	}
}

// scanText returns the character data at the cursor, entity references
// decoded, stopping before the next '<' or at the end of input. The
// result is a window span when the text lies in one window without
// references, and the scratch buffer otherwise; it is valid until the
// next read.
func (p *Parser) scanText() ([]byte, error) {
	p.scratch = p.scratch[:0]
	for {
		rest := p.win[p.pos:]
		lt := bytes.IndexByte(rest, '<')
		seg := rest
		if lt >= 0 {
			seg = rest[:lt]
		}
		if amp := bytes.IndexByte(seg, '&'); amp >= 0 {
			p.scratch = append(p.scratch, seg[:amp]...)
			p.pos += amp + 1
			if err := p.appendEntity(); err != nil {
				return nil, err
			}
			continue
		}
		if lt >= 0 {
			p.pos += lt
			if len(p.scratch) == 0 {
				return seg, nil
			}
			p.scratch = append(p.scratch, seg...)
			return p.scratch, nil
		}
		p.scratch = append(p.scratch, seg...)
		p.pos = len(p.win)
		if err := p.more(); err != nil {
			if err == io.EOF {
				return p.scratch, nil
			}
			return nil, err
		}
	}
}

// parseMarkup handles everything after a '<'. skip=true means the construct
// produces no token (comment, PI, doctype) — unless it is a CDATA section,
// which yields a text token.
func (p *Parser) parseMarkup(tok *Token) (skip bool, err error) {
	b, err := p.peek()
	if err != nil {
		return false, truncated(err, "truncated markup")
	}
	switch b {
	case '?':
		p.pos++
		return true, p.scanMarker("?>", false)
	case '!':
		p.pos++
		return p.parseBang(tok)
	case '/':
		p.pos++
		return false, p.parseEndTag(tok)
	default:
		return false, p.parseStartTag(tok)
	}
}

// parseBang handles <!-- comments, <![CDATA[ sections and <!DOCTYPE.
func (p *Parser) parseBang(tok *Token) (skip bool, err error) {
	b, err := p.next()
	if err != nil {
		return false, truncated(err, "truncated <! construct")
	}
	switch b {
	case '-':
		if b2, err := p.next(); err != nil || b2 != '-' {
			return false, truncated(err, "expected <!--")
		}
		return true, p.scanMarker("-->", false)
	case '[':
		// <![CDATA[ ... ]]>
		const open = "CDATA["
		for i := 0; i < len(open); i++ {
			c, err := p.next()
			if err != nil || c != open[i] {
				return false, truncated(err, "expected <![CDATA[")
			}
		}
		if p.depth == 0 {
			return false, malformed("CDATA outside the root element")
		}
		if err := p.scanMarker("]]>", true); err != nil {
			return false, err
		}
		if p.opts.SkipWhitespaceText && allSpace(p.scratch) {
			return true, nil
		}
		tok.Kind, tok.Text = KindText, string(p.scratch)
		return false, nil
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
				return true, nil
			}
			cur, err = p.next()
			if err != nil {
				return false, truncated(err, "truncated <! declaration")
			}
		}
	}
}

// scanMarker advances past the first occurrence of marker, which is k
// repeats of one byte x followed by '>' ("?>", "-->", "]]>"). Counting
// the run of x before each '>' handles overlapping prefixes: "]]]>" ends a
// CDATA section holding "]". With collect, the content before the marker
// is left in p.scratch (CDATA); otherwise nothing is kept, so a skipped
// comment or PI costs constant space however long it is.
func (p *Parser) scanMarker(marker string, collect bool) error {
	x, k := marker[0], len(marker)-1
	p.scratch = p.scratch[:0]
	run := 0 // x bytes immediately before the cursor
	for {
		rest := p.win[p.pos:]
		gt := bytes.IndexByte(rest, '>')
		seg := rest
		if gt >= 0 {
			seg = rest[:gt]
		}
		t := 0
		for t < len(seg) && seg[len(seg)-1-t] == x {
			t++
		}
		if t == len(seg) {
			run += t
		} else {
			run = t
		}
		if collect {
			p.scratch = append(p.scratch, seg...)
		}
		if gt >= 0 {
			p.pos += gt + 1
			if run >= k {
				if collect {
					p.scratch = p.scratch[:len(p.scratch)-k]
				}
				return nil
			}
			if collect {
				p.scratch = append(p.scratch, '>')
			}
			run = 0
			continue
		}
		p.pos = len(p.win)
		if err := p.more(); err != nil {
			return truncated(err, "missing %q terminator", marker)
		}
	}
}

func (p *Parser) parseStartTag(tok *Token) error {
	if p.done {
		return malformed("second root element")
	}
	name, err := p.readName()
	if err != nil {
		return err
	}
	p.attrs = p.attrs[:0]
	for {
		b, err := p.skipSpace()
		if err != nil {
			return truncated(err, "truncated start tag <%s", name)
		}
		switch b {
		case '>':
			p.pos++
		case '/':
			p.pos++
			if b2, err := p.next(); err != nil || b2 != '>' {
				return truncated(err, "expected /> in <%s", name)
			}
			p.pendingEnd, p.pendingName = true, name
		default:
			if err := p.readAttr(); err != nil {
				return err
			}
			continue
		}
		p.openElement(name)
		tok.Kind, tok.Name = KindStart, name
		if len(p.attrs) > 0 {
			tok.Attrs = append([]Attr(nil), p.attrs...)
		}
		return nil
	}
}

func (p *Parser) parseEndTag(tok *Token) error {
	name, err := p.readName()
	if err != nil {
		return err
	}
	b, err := p.skipSpace()
	if err != nil || b != '>' {
		return truncated(err, "malformed end tag </%s", name)
	}
	p.pos++
	if p.depth == 0 {
		return malformed("end tag </%s> with no open element", name)
	}
	tok.Kind, tok.Name = KindEnd, name
	return p.closeElement(name)
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

// readName reads the XML name at the cursor and returns it interned.
func (p *Parser) readName() (string, error) {
	b, err := p.peek()
	if err != nil || !isNameStart(b) {
		return "", truncated(err, "expected a name")
	}
	start := p.pos
	p.pos++
	straddled := false
	for {
		for p.pos < len(p.win) && nameByte[p.win[p.pos]] {
			p.pos++
		}
		if p.pos < len(p.win) {
			break
		}
		// The name runs to the end of the window: keep its bytes and
		// look at the next window.
		if !straddled {
			p.scratch = p.scratch[:0]
			straddled = true
		}
		p.scratch = append(p.scratch, p.win[start:]...)
		start = 0
		if err := p.more(); err != nil {
			if err == io.EOF {
				return p.intern(p.scratch), nil
			}
			return "", err
		}
	}
	if straddled {
		p.scratch = append(p.scratch, p.win[:p.pos]...)
		return p.intern(p.scratch), nil
	}
	return p.intern(p.win[start:p.pos]), nil
}

// intern returns name as a string, shared with earlier occurrences while
// the table is within its caps.
func (p *Parser) intern(name []byte) string {
	// A direct-mapped cache of recent names answers most lookups with
	// one comparison, ahead of the table's hash lookup.
	slot := &p.recent[(uint(len(name))*7+uint(name[0])+uint(name[len(name)-1])*3)%uint(len(p.recent))]
	if *slot == string(name) {
		return *slot
	}
	s, ok := p.names[string(name)]
	if !ok {
		s = string(name)
		if len(s) > maxInternLen || len(p.names) >= maxInterned {
			return s
		}
		p.names[s] = s
	}
	*slot = s
	return s
}

// readAttr reads name="value" (either quote style), entity-decoding the
// value, and appends it to p.attrs.
func (p *Parser) readAttr() error {
	name, err := p.readName()
	if err != nil {
		return err
	}
	b, err := p.skipSpace()
	if err != nil || b != '=' {
		return truncated(err, "attribute %s missing '='", name)
	}
	p.pos++
	quote, err := p.skipSpace()
	if err != nil || (quote != '"' && quote != '\'') {
		return truncated(err, "attribute %s missing quote", name)
	}
	p.pos++
	p.scratch = p.scratch[:0]
	for {
		rest := p.win[p.pos:]
		end := bytes.IndexByte(rest, quote)
		seg := rest
		if end >= 0 {
			seg = rest[:end]
		}
		amp := bytes.IndexByte(seg, '&')
		if lt := bytes.IndexByte(seg, '<'); lt >= 0 && (amp < 0 || lt < amp) {
			return malformed("raw '<' in value of attribute %s", name)
		}
		if amp >= 0 {
			p.scratch = append(p.scratch, seg[:amp]...)
			p.pos += amp + 1
			if err := p.appendEntity(); err != nil {
				return err
			}
			continue
		}
		if end >= 0 {
			p.pos += end + 1
			if len(p.scratch) > 0 {
				p.scratch = append(p.scratch, seg...)
				seg = p.scratch
			}
			p.attrs = append(p.attrs, Attr{Name: name, Value: string(seg)})
			return nil
		}
		p.scratch = append(p.scratch, seg...)
		p.pos = len(p.win)
		if err := p.more(); err != nil {
			return truncated(err, "unterminated value for attribute %s", name)
		}
	}
}

// appendEntity decodes the entity reference whose '&' has been consumed
// and appends its replacement to p.scratch.
func (p *Parser) appendEntity() error {
	var buf [16]byte
	n := 0
	for {
		b, err := p.next()
		if err != nil {
			return truncated(err, "unterminated entity reference")
		}
		if b == ';' {
			break
		}
		if n > 12 {
			return malformed("entity reference too long: &%s...", buf[:n])
		}
		buf[n] = b
		n++
	}
	ent := buf[:n]
	switch string(ent) {
	case "amp":
		p.scratch = append(p.scratch, '&')
		return nil
	case "lt":
		p.scratch = append(p.scratch, '<')
		return nil
	case "gt":
		p.scratch = append(p.scratch, '>')
		return nil
	case "quot":
		p.scratch = append(p.scratch, '"')
		return nil
	case "apos":
		p.scratch = append(p.scratch, '\'')
		return nil
	}
	if n > 0 && ent[0] == '#' {
		numeric := ent[1:]
		base := 10
		if len(numeric) > 0 && (numeric[0] == 'x' || numeric[0] == 'X') {
			numeric, base = numeric[1:], 16
		}
		r, err := strconv.ParseUint(string(numeric), base, 32)
		if err != nil || !utf8.ValidRune(rune(r)) {
			return malformed("bad character reference &%s;", ent)
		}
		p.scratch = utf8.AppendRune(p.scratch, rune(r))
		return nil
	}
	return malformed("unknown entity &%s;", ent)
}

// skipSpace advances past XML whitespace and returns the first other byte,
// leaving the cursor on it.
func (p *Parser) skipSpace() (byte, error) {
	for {
		b, err := p.peek()
		if err != nil || !isXMLSpace(b) {
			return b, err
		}
		p.pos++
	}
}

func isXMLSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\r' || b == '\n'
}

func allSpace(b []byte) bool {
	for _, c := range b {
		if !isXMLSpace(c) {
			return false
		}
	}
	return true
}

func isNameStart(b byte) bool {
	return b == '_' || b == ':' ||
		('a' <= b && b <= 'z') || ('A' <= b && b <= 'Z') || b >= 0x80
}

func isNameByte(b byte) bool {
	return isNameStart(b) || b == '-' || b == '.' || ('0' <= b && b <= '9')
}

// nameByte tabulates isNameByte for the name-scanning loop.
var nameByte = func() (t [256]bool) {
	for i := range t {
		t[i] = isNameByte(byte(i))
	}
	return t
}()
