package sortkey

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// encodePath hand-encodes the keypath wire prefix (path length, then per
// component uvarint key length, key bytes, uvarint seq) without importing
// internal/keypath (which imports this package).
func encodePath(comps ...any) []byte {
	if len(comps)%2 != 0 {
		panic("encodePath: want key/seq pairs")
	}
	var dst []byte
	dst = binary.AppendUvarint(dst, uint64(len(comps)/2))
	for i := 0; i < len(comps); i += 2 {
		key := comps[i].(string)
		seq := comps[i+1].(int)
		dst = binary.AppendUvarint(dst, uint64(len(key)))
		dst = append(dst, key...)
		dst = binary.AppendUvarint(dst, uint64(seq))
	}
	return dst
}

// sign normalizes a comparator result to -1/0/1.
func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	default:
		return 0
	}
}

// checkAgreement asserts the central kernel property for one pair: the
// comparator, bytes.Compare over full normalized keys, and antisymmetry
// all agree; and each record's key restores the prefix it claims.
func checkAgreement(t *testing.T, cmp func(a, b []byte) int, k Kernel, a, b []byte) int {
	t.Helper()
	c := sign(cmp(a, b))
	if rc := sign(cmp(b, a)); rc != -c {
		t.Errorf("antisymmetry broken: cmp(a,b)=%d cmp(b,a)=%d\na=%x\nb=%x", c, rc, a, b)
	}
	na := checkRoundTrip(t, k, a)
	nb := checkRoundTrip(t, k, b)
	if nc := sign(bytes.Compare(na, nb)); nc != c {
		t.Errorf("normalized keys disagree: cmp=%d bytes.Compare=%d\na=%x → %x\nb=%x → %x", c, nc, a, na, b, nb)
	}
	return c
}

// checkRoundTrip asserts the key-first contract for one record: when the
// key encodes a prefix (n > 0), Restore(key) ‖ rec[n:] is rec byte for
// byte. It returns the key.
func checkRoundTrip(t *testing.T, k Kernel, rec []byte) []byte {
	t.Helper()
	key, n := k.Key(nil, rec)
	if n < 0 || n > len(rec) {
		t.Fatalf("Key(%x) reported n=%d outside [0, %d]", rec, n, len(rec))
	}
	if n > 0 {
		if got := append(k.Restore(nil, key), rec[n:]...); !bytes.Equal(got, rec) {
			t.Errorf("round trip: Restore(%x) ‖ rec[%d:] = %x, want %x", key, n, got, rec)
		}
	}
	return key
}

func TestCompareKeyPathValidOrder(t *testing.T) {
	// Records in strictly ascending key-path order: parents before
	// descendants, siblings by (key, seq), text (empty key) first.
	ordered := [][]byte{
		encodePath("", 0),                        // root
		encodePath("", 0, "", 0),                 // text under root
		encodePath("", 0, "", 0, "x", 1),         // child of the text-position node
		encodePath("", 0, "", 1),                 // second unkeyed child
		encodePath("", 0, "AC", 1),               // keyed children after unkeyed
		encodePath("", 0, "AC", 1, "Atlanta", 2), //
		encodePath("", 0, "AC", 1, "Durham", 1),  //
		encodePath("", 0, "AC", 3),               // same key, later seq
		encodePath("", 0, "NE", 0),               //
		encodePath("", 0, "NE\x00z", 0),          // key with an embedded NUL
		encodePath("", 0, "NEz", 0),              // NUL sorts below 'z'
	}
	for i := range ordered {
		for j := range ordered {
			c := checkAgreement(t, CompareKeyPath, KeyPath(), ordered[i], ordered[j])
			if want := sign(i - j); c != want {
				t.Errorf("cmp(%d,%d) = %d, want %d", i, j, c, want)
			}
		}
	}
}

func TestCompareKeyPathSeqOrder(t *testing.T) {
	// Seq ordering is numeric, including across varint length boundaries
	// and up to the top of the uint64 range.
	seqs := []int{0, 1, 127, 128, 255, 256, 16383, 16384, 1 << 30}
	for i, sa := range seqs {
		for j, sb := range seqs {
			a := encodePath("k", sa)
			b := encodePath("k", sb)
			if c := checkAgreement(t, CompareKeyPath, KeyPath(), a, b); c != sign(i-j) {
				t.Errorf("seq %d vs %d: cmp = %d", sa, sb, c)
			}
		}
	}
}

// TestCompareKeyPathMalformed pins the total order on malformed records:
// a truncated record no longer aliases the empty key — it sorts strictly
// after every valid record sharing its parseable prefix, and corrupt
// records order among themselves by raw tail.
func TestCompareKeyPathMalformed(t *testing.T) {
	valid := encodePath("AC", 1)
	validChild := encodePath("AC", 1, "zz", 9)
	validEmpty := encodePath("", 0)

	// Header claims two components, only one present.
	truncated := append([]byte(nil), encodePath("AC", 1)...)
	truncated[0] = 2
	// Key length runs past the buffer.
	overrun := []byte{1, 50, 'x'}
	// Seq varint truncated mid-read.
	seqCut := []byte{1, 2, 'A', 'C', 0x80}
	// Unterminated header varint.
	badHeader := []byte{0x80}

	for _, m := range [][]byte{truncated, overrun, seqCut, badHeader} {
		for _, v := range [][]byte{valid, validChild, validEmpty} {
			checkAgreement(t, CompareKeyPath, KeyPath(), m, v)
		}
		if c := CompareKeyPath(m, m); c != 0 {
			t.Errorf("corrupt record not equal to itself: %d", c)
		}
	}

	// The old hole: a record truncated after "AC" compared equal to paths
	// that extend it with empty keys. Now it sorts after every valid
	// extension of its parseable prefix.
	if c := CompareKeyPath(truncated, validChild); c <= 0 {
		t.Errorf("truncated record must sort after valid extensions, got %d", c)
	}
	if c := CompareKeyPath(truncated, valid); c <= 0 {
		t.Errorf("truncated record must sort after its valid prefix, got %d", c)
	}
	// And it is distinct from (not aliased to) the empty-keyed record the
	// old comparator collapsed it onto.
	aliased := encodePath("AC", 1, "", 0)
	if c := CompareKeyPath(truncated, aliased); c == 0 {
		t.Error("truncated record still aliases an empty-key extension")
	}
	checkAgreement(t, CompareKeyPath, KeyPath(), truncated, aliased)

	// Corrupt vs corrupt with different tails orders by tail bytes: both
	// records have key "a" and a seq varint that never terminates.
	m1 := []byte{1, 1, 'a', 0x80, 0x80}
	m2 := []byte{1, 1, 'a', 0x80, 0x81}
	if c := checkAgreement(t, CompareKeyPath, KeyPath(), m1, m2); c >= 0 {
		t.Errorf("corrupt tails must order by raw bytes, got %d", c)
	}
}

func TestCompareKeySeq(t *testing.T) {
	enc := func(key string, seq int, payload string) []byte {
		var dst []byte
		dst = binary.AppendUvarint(dst, uint64(len(key)))
		dst = append(dst, key...)
		dst = binary.AppendUvarint(dst, uint64(seq))
		return append(dst, payload...)
	}
	ordered := [][]byte{
		enc("", 0, "pay"),
		enc("", 7, ""),
		enc("a", 0, "zzz"),
		enc("a", 1, ""),
		enc("a\x00", 0, ""),
		enc("ab", 3, "x"),
		enc("b", 0, ""),
	}
	for i := range ordered {
		for j := range ordered {
			c := checkAgreement(t, CompareKeySeq, KeySeq(), ordered[i], ordered[j])
			if want := sign(i - j); c != want {
				t.Errorf("cmp(%d,%d) = %d, want %d", i, j, c, want)
			}
		}
	}
	// Payload is not part of the order.
	if c := CompareKeySeq(enc("k", 2, "aaa"), enc("k", 2, "bbb")); c != 0 {
		t.Errorf("payload leaked into the order: %d", c)
	}
	// Malformed: truncated seq sorts after valid records with the same key.
	cut := []byte{1, 'k', 0x80}
	if c := CompareKeySeq(cut, enc("k", 1<<40, "")); c <= 0 {
		t.Errorf("truncated seq must sort after valid seqs, got %d", c)
	}
	checkAgreement(t, CompareKeySeq, KeySeq(), cut, enc("k", 3, ""))
}

func TestCompareKeys(t *testing.T) {
	if CompareKeys("", "a") >= 0 || CompareKeys("a", "") <= 0 || CompareKeys("a", "a") != 0 {
		t.Error("CompareKeys is not plain byte order")
	}
}

func TestFixedPrefixKernel(t *testing.T) {
	k := FixedPrefix(8)
	a := append(binary.BigEndian.AppendUint64(nil, 5), "keyA"...)
	b := append(binary.BigEndian.AppendUint64(nil, 9), "keyB"...)
	less := func(x, y []byte) int {
		kx, _ := k.Key(nil, x)
		ky, _ := k.Key(nil, y)
		return bytes.Compare(kx, ky)
	}
	if less(a, b) >= 0 || less(b, a) <= 0 || less(a, a) != 0 {
		t.Error("FixedPrefix order broken")
	}
	if got, n := k.Key(nil, b); !bytes.Equal(got, b[:8]) || n != 8 {
		t.Errorf("Key = %x, %d, want %x, 8", got, n, b[:8])
	}
	checkRoundTrip(t, k, b)
	// Records shorter than the prefix clamp instead of panicking: a
	// one-byte record is a strict prefix of a's first 8 bytes here.
	if less([]byte{0}, a) >= 0 {
		t.Error("short record must sort by its clamped prefix")
	}
	checkRoundTrip(t, k, []byte{0})
	checkRoundTrip(t, k, nil)
}

// TestKeyPathLongPath round-trips paths around the 128-component mark,
// where the restored path-length header grows to two bytes.
func TestKeyPathLongPath(t *testing.T) {
	for _, depth := range []int{127, 128, 300} {
		comps := make([]any, 0, 2*depth)
		for i := 0; i < depth; i++ {
			comps = append(comps, fmt.Sprintf("k%d", i%7), i)
		}
		rec := append(encodePath(comps...), "token"...)
		key := checkRoundTrip(t, KeyPath(), rec)
		shorter := append(encodePath(comps[:len(comps)-2]...), "token"...)
		checkAgreement(t, CompareKeyPath, KeyPath(), shorter, rec)
		if len(key) == 0 {
			t.Errorf("depth %d: empty key", depth)
		}
	}
}

// TestSeqEncodingWidths pins the prefix varint at every class boundary:
// numeric order is byte order, the first byte is never 0xFF, seqAt
// inverts it, and below 2^49 it is exactly as long as the uvarint.
func TestSeqEncodingWidths(t *testing.T) {
	var vals []uint64
	for k := 0; k <= 9; k++ {
		edge := uint64(1) << (7 * k)
		vals = append(vals, edge-1, edge)
	}
	vals = append(vals, 1<<56-1, 1<<56, 1<<63, ^uint64(0))
	var prev []byte
	for i, v := range vals {
		enc := appendSeq(nil, v)
		if enc[0] == tagCorrupt {
			t.Errorf("seq %d encodes with a leading 0xFF: %x", v, enc)
		}
		if got, next := seqAt(enc, 0); got != v || next != len(enc) {
			t.Errorf("seqAt(%x) = %d, %d; want %d, %d", enc, got, next, v, len(enc))
		}
		if v < 1<<49 && len(enc) != uvarintLen(v) {
			t.Errorf("seq %d: %d bytes, uvarint %d", v, len(enc), uvarintLen(v))
		}
		if i > 0 && vals[i-1] < v && bytes.Compare(prev, enc) >= 0 {
			t.Errorf("seq %d (%x) does not sort after %d (%x)", v, enc, vals[i-1], prev)
		}
		prev = enc
	}
}

// TestEscapedBytes checks each escaped key byte in the positions that
// matter: alone, between ordinary bytes, and against its neighbours in
// byte order, for both order and round trip.
func TestEscapedBytes(t *testing.T) {
	var keys []string
	for _, c := range []byte{0x00, 0x01, 0x02, 'a', 0xFD, 0xFE, 0xFF} {
		keys = append(keys, string([]byte{c}), "x"+string([]byte{c})+"y")
	}
	sort.Strings(keys)
	keys = append([]string{""}, keys...)
	for i := range keys {
		for j := range keys {
			a, b := encodePath("", 0, keys[i], 1), encodePath("", 0, keys[j], 1)
			if c := checkAgreement(t, CompareKeyPath, KeyPath(), a, b); c != sign(strings.Compare(keys[i], keys[j])) {
				t.Errorf("key %q vs %q: cmp = %d", keys[i], keys[j], c)
			}
		}
	}
}

// TestKeyPathRandomPairs drives the agreement property over a large random
// sample of valid and mutilated records.
func TestKeyPathRandomPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	randRec := func() []byte {
		depth := rng.Intn(5)
		comps := make([]any, 0, 2*depth+2)
		comps = append(comps, "", 0)
		for i := 0; i < depth; i++ {
			keys := []string{"", "a", "ab", "b\x00c", "zz", "\xff\xfe"}
			comps = append(comps, keys[rng.Intn(len(keys))], rng.Intn(300))
		}
		rec := encodePath(comps...)
		if rng.Intn(3) == 0 { // mutilate: truncate or flip the header
			switch rng.Intn(3) {
			case 0:
				if len(rec) > 1 {
					rec = rec[:1+rng.Intn(len(rec)-1)]
				}
			case 1:
				rec[0] += byte(1 + rng.Intn(4))
			case 2:
				rec = append(rec, 0x80)
			}
		}
		return rec
	}
	for i := 0; i < 3000; i++ {
		checkAgreement(t, CompareKeyPath, KeyPath(), randRec(), randRec())
	}
}

// TestKeyPathTransitivity spot-checks that the malformed-order extension
// is transitive on random triples (a total order, not just antisymmetric).
func TestKeyPathTransitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	recs := make([][]byte, 60)
	for i := range recs {
		n := rng.Intn(12)
		rec := make([]byte, n)
		rng.Read(rec)
		recs[i] = rec
	}
	for i := 0; i < 4000; i++ {
		a, b, c := recs[rng.Intn(len(recs))], recs[rng.Intn(len(recs))], recs[rng.Intn(len(recs))]
		if CompareKeyPath(a, b) <= 0 && CompareKeyPath(b, c) <= 0 && CompareKeyPath(a, c) > 0 {
			t.Fatalf("transitivity broken:\na=%x\nb=%x\nc=%x", a, b, c)
		}
	}
}

func BenchmarkCompareKeyPath(b *testing.B) {
	recs := benchRecords()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CompareKeyPath(recs[i%len(recs)], recs[(i+1)%len(recs)])
	}
}

func BenchmarkNormalizedCompare(b *testing.B) {
	recs := benchRecords()
	keys := make([][]byte, len(recs))
	for i, r := range recs {
		keys[i], _ = AppendKeyPathKey(nil, r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bytes.Compare(keys[i%len(keys)], keys[(i+1)%len(keys)])
	}
}

func BenchmarkAppendKeyPathKey(b *testing.B) {
	recs := benchRecords()
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = AppendKeyPathKey(buf[:0], recs[i%len(recs)])
	}
}

func BenchmarkRestoreKeyPath(b *testing.B) {
	recs := benchRecords()
	keys := make([][]byte, len(recs))
	for i, r := range recs {
		keys[i], _ = AppendKeyPathKey(nil, r)
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = RestoreKeyPath(buf[:0], keys[i%len(keys)])
	}
}

func benchRecords() [][]byte {
	rng := rand.New(rand.NewSource(3))
	recs := make([][]byte, 256)
	for i := range recs {
		comps := []any{"", 0}
		for d := 0; d < 3+rng.Intn(4); d++ {
			comps = append(comps, fmt.Sprintf("key%03d", rng.Intn(100)), rng.Intn(1000))
		}
		recs[i] = encodePath(comps...)
	}
	return recs
}
