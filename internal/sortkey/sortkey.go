// Package sortkey is the comparison kernel of the sort hot path: an
// order-preserving binary key encoding over the record formats the
// sorters spill, plus allocation-free reference comparators that define
// the order.
//
// The central idea is the normalized key of sort engineering practice
// (Rahn/Sanders/Singler; also every database sort since System R): map each
// record to a byte string such that
//
//	bytes.Compare(Key(a), Key(b)) == Compare(a, b)   (in sign)
//
// so the O(N·log N) comparisons of run formation and the O(log k) per
// output record of merging degenerate to a plain memcmp — no decoding, no
// per-component string allocation, no pointer chasing. The comparators
// here (CompareKeyPath, CompareKeySeq) are the documented order the keys
// reproduce; the sorter itself compares keys only.
//
// A kernel's key is also reversible over a prefix of the record: Key
// reports n, the length of the record prefix the key encodes exactly, and
// Restore rebuilds those n bytes from the key. The external sorter keeps
// each buffered record as its key followed by rec[n:] and restores the
// exact record bytes when it spills, so holding full keys costs no memory
// beyond the record itself.
//
// # Encoding
//
// A key path is a sequence of (key, seq) components (see internal/keypath).
// Its normalized key is the concatenation, per component, of
//
//	escape(key)  0x00 0x01 0xFE 0xFF → 0x01 0x01, 0x01 0x02, 0xFE 0x01, 0xFE 0x02
//	0x00         key terminator
//	pvarint(seq) order-preserving prefix varint (see appendSeq)
//
// and nothing at the end of the path. The four escaped bytes are ones XML
// text cannot contain (0x00 and 0x01 are not XML characters; 0xFE and
// 0xFF never occur in UTF-8), so real keys copy through verbatim and the
// key is never longer than the uvarint-encoded path it replaces.
//
// Order preservation falls out of three facts. First, the escape is
// monotone and never emits 0x00 or 0xFF: unescaped bytes are 0x02–0xFD,
// the low escapes begin with 0x01 and the high ones with 0xFE, and the
// second byte orders within each pair. A key that is a strict prefix of
// another therefore ends with a terminator 0x00 where the longer key has a
// byte ≥ 0x01. Second, the seq encoding puts its length class in the
// leading bits of the first byte, so numeric order and byte order
// coincide. Third, a record whose path is a strict prefix of another's
// produces a normalized key that is a strict byte prefix, and bytes.Compare
// orders prefixes first — exactly the parent-before-descendants order of
// the key-path representation.
//
// # Malformed records
//
// A record that cannot be fully parsed (truncated varint, key length
// overrunning the buffer) does not alias to a valid record — the historic
// hole where a truncated component compared as the empty key. Instead the
// normalized key of the valid prefix is followed by
//
//	0xFF ++ raw remaining bytes
//
// and the comparators mirror the same rule. 0xFF occurs nowhere else in a
// key — not in an escaped key, not as the terminator, not as the first
// byte of a seq — and sorts above end-of-path (end of string), so a
// corrupt record sorts strictly after every valid record sharing its
// parseable prefix; two corrupt records order by their raw tails. The
// result is a total order (ties only between records whose parseable
// prefixes and corrupt tails coincide), which is what an in-flight
// comparator can offer — surfacing corruption as an error remains the job
// of the decoding read path. Such records, and records whose varints are
// not minimally encoded, report n = 0: their key does not round-trip, so
// the sorter keeps the whole record after it.
package sortkey

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

// Normalized-key byte markers. Their relative order is load-bearing; see
// the package comment.
const (
	keyEnd     = 0x00 // terminates every escaped key
	escLow     = 0x01 // escape prefix for key bytes 0x00 and 0x01
	escHigh    = 0xFE // escape prefix for key bytes 0xFE and 0xFF
	tagCorrupt = 0xFF // precedes the raw tail of an unparseable record
	seqLong    = 0xFE // first byte of the widest seq class (8 bytes follow)
)

// Kernel is the sort-key kernel of one record format: the order-preserving
// normalized key of a record, and the inverse that rebuilds the record
// prefix the key encodes. Both must be pure functions (safe for concurrent
// use by pool workers).
type Kernel struct {
	// Key appends rec's full normalized key to dst and returns the
	// extended slice: bytes.Compare over keys is the record order. n is
	// the length of the prefix of rec that the key encodes exactly, so
	// Restore(nil, key) == rec[:n]. n == 0 means the key determines no
	// prefix (malformed records, non-minimal varints), and a caller that
	// needs the record back must keep all of it.
	Key func(dst, rec []byte) (key []byte, n int)
	// Restore appends rec[:n] rebuilt from a key that Key produced with
	// n > 0.
	Restore func(dst, key []byte) []byte
}

// KeyPath is the kernel for keypath-encoded records (path length, then per
// component a uvarint-prefixed key and a uvarint seq). Its order is
// CompareKeyPath, the order of keypath.CompareEncoded and
// keypath.Record.Compare; the key encodes the header and the path.
func KeyPath() Kernel {
	return Kernel{Key: AppendKeyPathKey, Restore: RestoreKeyPath}
}

// KeySeq is the kernel for (key, seq)-headed records: a uvarint-prefixed
// key followed by a uvarint seq, with an arbitrary payload after — the
// child-record format of graceful degeneration. Its order is
// CompareKeySeq; the key encodes the (key, seq) head.
func KeySeq() Kernel {
	return Kernel{Key: AppendKeySeqKey, Restore: RestoreKeySeq}
}

// FixedPrefix is the kernel for records ordered by their first n raw
// bytes (e.g. the big-endian preorder index of the key sidecar). Records
// shorter than n order by their whole bytes. The key is that prefix
// itself, so Restore is the identity.
func FixedPrefix(n int) Kernel {
	return Kernel{
		Key: func(dst, rec []byte) ([]byte, int) {
			if len(rec) > n {
				rec = rec[:n]
			}
			return append(dst, rec...), len(rec)
		},
		Restore: func(dst, key []byte) []byte { return append(dst, key...) },
	}
}

// CompareKeys is the sibling order on criterion keys: plain byte order,
// with the empty key (text nodes, unkeyed elements) first. It is the one
// definition of key order every sorter and the structural merge share.
func CompareKeys(a, b string) int {
	switch {
	case a == b:
		return 0
	case a < b:
		return -1
	default:
		return 1
	}
}

// uvarint decodes a varint from buf at pos without an io.ByteReader
// round-trip. ok is false when the varint is truncated or overflows 64
// bits; pos is then unchanged (the failing field's first byte).
func uvarint(buf []byte, pos int) (v uint64, next int, ok bool) {
	var shift uint
	for i := pos; i < len(buf); i++ {
		b := buf[i]
		if b < 0x80 {
			if i-pos > 9 || (i-pos == 9 && b > 1) {
				return 0, pos, false // overflows uint64
			}
			return v | uint64(b)<<shift, i + 1, true
		}
		v |= uint64(b&0x7f) << shift
		shift += 7
		if shift >= 64 {
			return 0, pos, false
		}
	}
	return 0, pos, false
}

// uvarintLen is the length of the minimal uvarint encoding of v.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// needsEscape reports whether key byte c is one of the four escaped bytes.
func needsEscape(c byte) bool { return c <= escLow || c >= escHigh }

// appendEscaped appends key with 0x00/0x01 escaped to 0x01 0x01/0x01 0x02
// and 0xFE/0xFF to 0xFE 0x01/0xFE 0x02, then the 0x00 terminator.
func appendEscaped(dst, key []byte) []byte {
	start := 0
	for i, c := range key {
		if !needsEscape(c) {
			continue
		}
		dst = append(dst, key[start:i]...)
		if c <= escLow {
			dst = append(dst, escLow, c+1)
		} else {
			dst = append(dst, escHigh, c-escHigh+1)
		}
		start = i + 1
	}
	dst = append(dst, key[start:]...)
	return append(dst, keyEnd)
}

// appendSeq appends the order-preserving prefix varint of v. Class k
// (0 ≤ k ≤ 6) holds v < 2^(7+7k) in k+1 bytes: k one-bits, a zero bit,
// then the value big-endian in the remaining 7+7k bits — the same length
// as v's uvarint. Values from 2^49 up take 0xFE and eight big-endian
// bytes. The class is the count of leading one-bits, so a larger value
// never has a smaller first byte, and the first byte is never 0xFF.
func appendSeq(dst []byte, v uint64) []byte {
	if v < 0x80 {
		return append(dst, byte(v))
	}
	k := 0
	for k < 7 && v >= 1<<(7+7*k) {
		k++
	}
	if k == 7 {
		return binary.BigEndian.AppendUint64(append(dst, seqLong), v)
	}
	dst = append(dst, byte(uint16(0xFF00)>>k)|byte(v>>(8*k)))
	for i := k - 1; i >= 0; i-- {
		dst = append(dst, byte(v>>(8*i)))
	}
	return dst
}

// seqAt decodes the prefix varint at key[p], returning the value and the
// offset after it. A varint running past the end of key (which Key never
// produces) decodes from the bytes present.
func seqAt(key []byte, p int) (v uint64, next int) {
	if p >= len(key) {
		return 0, p
	}
	b := key[p]
	if b < 0x80 {
		return uint64(b), p + 1
	}
	k := bits.LeadingZeros8(^b)
	if k >= 7 {
		k = 8
	} else {
		v = uint64(b & (0x7F >> k))
	}
	p++
	for ; k > 0 && p < len(key); k-- {
		v = v<<8 | uint64(key[p])
		p++
	}
	return v, p
}

// component is one parsed step of an encoded record, or the reason parsing
// stopped.
type component struct {
	state compState
	key   []byte
	seq   uint64
	seqOK bool // false: key parsed but seq truncated (corrupt inside)
	canon bool // both varints are minimally encoded
	tail  int  // corrupt: offset of the first unparseable field
	next  int  // cursor after this component
}

type compState uint8

const (
	compEnd     compState = iota // past the last component (rank 0)
	compKeyed                    // key parsed; seq per seqOK (rank 1)
	compCorrupt                  // unparseable at the component head (rank 2)
)

// parseComponent parses component i of a record whose header declared n
// components, starting at pos.
func parseComponent(buf []byte, pos int, i, n uint64) component {
	if i >= n {
		return component{state: compEnd, next: pos}
	}
	keyLen, p, ok := uvarint(buf, pos)
	if !ok {
		return component{state: compCorrupt, tail: pos}
	}
	if keyLen > uint64(len(buf)-p) {
		return component{state: compCorrupt, tail: p}
	}
	canon := p-pos == uvarintLen(keyLen)
	key := buf[p : p+int(keyLen)]
	pos = p + int(keyLen)
	seq, p, ok := uvarint(buf, pos)
	if !ok {
		return component{state: compKeyed, key: key, tail: pos}
	}
	canon = canon && p-pos == uvarintLen(seq)
	return component{state: compKeyed, key: key, seq: seq, seqOK: true, canon: canon, next: p}
}

// compareCorruptHeader orders a record x whose header varint does not
// parse (normalized key 0xFF ++ x) against a record y with a parseable
// header. y's normalized key begins with a key byte or terminator
// (≤ 0xFE), with the corrupt marker when its first component is
// unparseable (0xFF ++ tail), or is empty for a zero-component path — so x
// sorts after y except when both reduce to corrupt tails, which order by
// raw bytes.
func compareCorruptHeader(x, y []byte, py int, ny uint64) int {
	c := parseComponent(y, py, 0, ny)
	if c.state == compCorrupt {
		return bytes.Compare(x, y[c.tail:])
	}
	return 1
}

// CompareKeyPath orders two keypath-encoded records by path, component-wise
// by (key, seq) with strict path prefixes first, without decoding tokens
// and without allocating. Malformed records take the total order described
// in the package comment. It is the documented order of the KeyPath
// kernel: it agrees in sign with bytes.Compare over AppendKeyPathKey.
func CompareKeyPath(a, b []byte) int {
	na, pa, oka := uvarint(a, 0)
	nb, pb, okb := uvarint(b, 0)
	if !oka || !okb {
		switch {
		case !oka && !okb:
			return bytes.Compare(a, b)
		case !oka:
			return compareCorruptHeader(a, b, pb, nb)
		default:
			return -compareCorruptHeader(b, a, pa, na)
		}
	}
	for i := uint64(0); ; i++ {
		ca := parseComponent(a, pa, i, na)
		cb := parseComponent(b, pb, i, nb)
		if ca.state != cb.state {
			if ca.state < cb.state {
				return -1
			}
			return 1
		}
		switch ca.state {
		case compEnd:
			return 0
		case compCorrupt:
			return bytes.Compare(a[ca.tail:], b[cb.tail:])
		}
		if c := bytes.Compare(ca.key, cb.key); c != 0 {
			return c
		}
		if !ca.seqOK || !cb.seqOK {
			switch {
			case !ca.seqOK && !cb.seqOK:
				return bytes.Compare(a[ca.tail:], b[cb.tail:])
			case !ca.seqOK:
				return 1
			default:
				return -1
			}
		}
		if ca.seq != cb.seq {
			if ca.seq < cb.seq {
				return -1
			}
			return 1
		}
		pa, pb = ca.next, cb.next
	}
}

// appendCorrupt appends the malformed-record marker and raw tail; the key
// then encodes no record prefix.
func appendCorrupt(dst, tail []byte) ([]byte, int) {
	return append(append(dst, tagCorrupt), tail...), 0
}

// AppendKeyPathKey appends the normalized key of a keypath-encoded record
// and reports how much of rec it encodes: the header and every component
// when all varints are minimal, otherwise 0. See Kernel.Key.
func AppendKeyPathKey(dst, rec []byte) ([]byte, int) {
	n, pos, ok := uvarint(rec, 0)
	if !ok {
		return appendCorrupt(dst, rec)
	}
	canon := pos == uvarintLen(n)
	for i := uint64(0); i < n; i++ {
		// Fast path: a one-byte key length (always minimal) and a
		// minimal seq, without building a component.
		if pos < len(rec) && rec[pos] < 0x80 {
			p, kl := pos+1, int(rec[pos])
			if kl < len(rec)-p {
				seq, next, ok := uvarint(rec, p+kl)
				if ok && next-(p+kl) == uvarintLen(seq) {
					dst = appendSeq(appendEscaped(dst, rec[p:p+kl]), seq)
					pos = next
					continue
				}
			}
		}
		c := parseComponent(rec, pos, i, n)
		if c.state == compCorrupt {
			return appendCorrupt(dst, rec[c.tail:])
		}
		dst = appendEscaped(dst, c.key)
		if !c.seqOK {
			return appendCorrupt(dst, rec[c.tail:])
		}
		dst = appendSeq(dst, c.seq)
		canon = canon && c.canon
		pos = c.next
	}
	if !canon {
		return dst, 0
	}
	return dst, pos
}

// skipEscaped returns the offset of the terminator of the escaped key
// starting at key[p] (len(key) if there is none) and the unescaped length.
// Keys are short, so one byte loop beats an IndexByte call plus an escape
// count.
func skipEscaped(key []byte, p int) (end, n int) {
	for i := p; i < len(key); i++ {
		switch key[i] {
		case keyEnd:
			return i, n
		case escLow, escHigh:
			i++ // the escaped byte
		}
		n++
	}
	return len(key), n
}

// restoreComponent appends the uvarint-encoded (key, seq) of the key
// component at key[p] and returns the offset of the next component.
func restoreComponent(dst, key []byte, p int) ([]byte, int) {
	end, n := skipEscaped(key, p)
	dst = binary.AppendUvarint(dst, uint64(n))
	if n == end-p {
		dst = append(dst, key[p:end]...)
	} else {
		for i := p; i < end; i++ {
			switch c := key[i]; {
			case (c == escLow || c == escHigh) && i+1 < end:
				i++
				if c == escLow {
					dst = append(dst, key[i]-1)
				} else {
					dst = append(dst, key[i]+escHigh-1)
				}
			default:
				dst = append(dst, c)
			}
		}
	}
	seq, next := seqAt(key, end+1)
	return binary.AppendUvarint(dst, seq), next
}

// RestoreKeyPath appends the keypath record prefix — header and path —
// that AppendKeyPathKey encoded into key.
func RestoreKeyPath(dst, key []byte) []byte {
	// The component count is known only at the end: restore behind a
	// one-byte header and widen it in the rare case it needs more.
	base := len(dst)
	dst = append(dst, 0)
	count := 0
	for p := 0; p < len(key); count++ {
		dst, p = restoreComponent(dst, key, p)
	}
	if count < 0x80 {
		dst[base] = byte(count)
		return dst
	}
	var hdr [binary.MaxVarintLen64]byte
	h := binary.PutUvarint(hdr[:], uint64(count))
	dst = append(dst, hdr[1:h]...)
	copy(dst[base+h:], dst[base+1:len(dst)-(h-1)])
	copy(dst[base:], hdr[:h])
	return dst
}

// CompareKeySeq orders (key, seq)-headed records — keyLen uvarint, key
// bytes, seq uvarint, then an ignored payload — by (key, seq), with the
// same malformed-record total order as CompareKeyPath. It is the
// documented order of the KeySeq kernel: it agrees in sign with
// bytes.Compare over AppendKeySeqKey.
func CompareKeySeq(a, b []byte) int {
	ca := parseComponent(a, 0, 0, 1)
	cb := parseComponent(b, 0, 0, 1)
	if ca.state != cb.state { // compKeyed vs compCorrupt only
		if ca.state < cb.state {
			return -1
		}
		return 1
	}
	if ca.state == compCorrupt {
		return bytes.Compare(a[ca.tail:], b[cb.tail:])
	}
	if c := bytes.Compare(ca.key, cb.key); c != 0 {
		return c
	}
	if !ca.seqOK || !cb.seqOK {
		switch {
		case !ca.seqOK && !cb.seqOK:
			return bytes.Compare(a[ca.tail:], b[cb.tail:])
		case !ca.seqOK:
			return 1
		default:
			return -1
		}
	}
	switch {
	case ca.seq < cb.seq:
		return -1
	case ca.seq > cb.seq:
		return 1
	default:
		return 0
	}
}

// AppendKeySeqKey appends the normalized key of a (key, seq)-headed record
// and reports how much of rec it encodes: the head when both varints are
// minimal, otherwise 0. See Kernel.Key.
func AppendKeySeqKey(dst, rec []byte) ([]byte, int) {
	c := parseComponent(rec, 0, 0, 1)
	if c.state == compCorrupt {
		return appendCorrupt(dst, rec[c.tail:])
	}
	dst = appendEscaped(dst, c.key)
	if !c.seqOK {
		return appendCorrupt(dst, rec[c.tail:])
	}
	dst = appendSeq(dst, c.seq)
	if !c.canon {
		return dst, 0
	}
	return dst, c.next
}

// RestoreKeySeq appends the (key, seq) head that AppendKeySeqKey encoded
// into key.
func RestoreKeySeq(dst, key []byte) []byte {
	dst, _ = restoreComponent(dst, key, 0)
	return dst
}
