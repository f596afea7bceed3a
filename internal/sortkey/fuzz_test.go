package sortkey

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzKeyPathOrder fuzzes the central contract of the package over
// arbitrary byte strings — valid encodings, truncated ones, garbage:
//
//	sign(bytes.Compare(Key(a), Key(b))) == sign(CompareKeyPath(a, b))
//
// plus antisymmetry and reflexivity of the documented order.
func FuzzKeyPathOrder(f *testing.F) {
	// Hand-encoded seeds: valid one- and two-component paths, path
	// prefixes, seq ties, the historic truncation hole (header promising
	// more components than present), key-length overruns, seq varints cut
	// mid-byte, and non-minimal varint encodings of the same value.
	seeds := [][]byte{
		{},
		{0x00},
		{1, 0, 0},
		{1, 1, 'A', 0},
		{1, 1, 'A', 1},
		{2, 1, 'A', 0, 1, 'B', 3},
		{2, 1, 'A', 0, 1, 'B', 0x83},
		{1, 3, 'N', 0x00, 'E', 2},
		{2, 1, 'A', 1}, // truncated: header says 2, one present
		{1, 50, 'x'},   // key length overruns the buffer
		{1, 2, 'A', 'C', 0x80},
		{0x80},             // never-terminating header varint
		{0x81, 0x00, 0, 0}, // non-minimal encoding of n=1
		{1, 1, 'a', 0x80, 0x80},
		{1, 1, 'a', 0x80, 0x81},
	}
	for _, a := range seeds {
		for _, b := range seeds {
			f.Add(a, b)
		}
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		got := sign(CompareKeyPath(a, b))
		ka, _ := AppendKeyPathKey(nil, a)
		kb, _ := AppendKeyPathKey(nil, b)
		if want := sign(bytes.Compare(ka, kb)); got != want {
			t.Fatalf("CompareKeyPath(%x, %x) = %d, normalized keys order %d\n ka=%x\n kb=%x",
				a, b, got, want, ka, kb)
		}
		if back := sign(CompareKeyPath(b, a)); back != -got {
			t.Fatalf("antisymmetry: cmp(a,b)=%d cmp(b,a)=%d for a=%x b=%x", got, back, a, b)
		}
		if sign(CompareKeyPath(a, a)) != 0 {
			t.Fatalf("CompareKeyPath(a, a) != 0 for a=%x", a)
		}
	})
}

// FuzzKeySeqOrder checks the same normalization contract for the
// (key, seq)-headed child-record format.
func FuzzKeySeqOrder(f *testing.F) {
	seeds := [][]byte{
		{},
		{0, 0},
		{1, 'A', 0, 'p', 'a', 'y', 'l', 'o', 'a', 'd'},
		{1, 'A', 1},
		{2, 'A', 0x00, 3},
		{9, 'x'},       // key overrun
		{1, 'A'},       // seq missing
		{0x80},         // never-terminating key length
		{1, 'A', 0x80}, // seq cut mid-varint
	}
	for _, a := range seeds {
		for _, b := range seeds {
			f.Add(a, b)
		}
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		got := sign(CompareKeySeq(a, b))
		ka, _ := AppendKeySeqKey(nil, a)
		kb, _ := AppendKeySeqKey(nil, b)
		if want := sign(bytes.Compare(ka, kb)); got != want {
			t.Fatalf("CompareKeySeq(%x, %x) = %d, normalized keys order %d", a, b, got, want)
		}
		if back := sign(CompareKeySeq(b, a)); back != -got {
			t.Fatalf("antisymmetry: cmp(a,b)=%d cmp(b,a)=%d for a=%x b=%x", got, back, a, b)
		}
	})
}

// FuzzKeyRoundTrip fuzzes the key-first contract the external sorter
// builds on, for both reversible kernels over arbitrary bytes: the
// reported prefix length is within the record, and when it is positive,
// Restore(key) ‖ rec[n:] equals rec byte for byte.
func FuzzKeyRoundTrip(f *testing.F) {
	seqWidths := func(key string) [][]byte {
		// One record per prefix-varint class boundary, in both formats.
		var out [][]byte
		for k := 0; k <= 9; k++ {
			for _, v := range []uint64{uint64(1)<<(7*k) - 1, uint64(1) << (7 * k)} {
				out = append(out, encodePathU(key, v), encodeSeqHead(key, v, "p"))
			}
		}
		return out
	}
	seeds := [][]byte{
		{},
		{0x00},
		{1, 0, 0},
		{2, 1, 'A', 0, 1, 'B', 0x83, 0x01, 'T'},
		{0x81, 0x00, 0, 0}, // non-minimal header varint
		{1, 0x81, 0x00, 'A', 0},
		{1, 1, 'A', 0x80, 0x00}, // non-minimal seq varint
		{2, 1, 'A', 1},          // truncated header
		{1, 50, 'x'},            // key length overrun
		{1, 2, 'A', 'C', 0x80},  // truncated seq
		{0x80},
		{9, 'x'},
		{1, 'A', 0x80},
		encodePath("\x00\x01\xfe\xff", 3, "a\x00b\xffc", 7),
		encodeSeqHead("\x00\x01\x02\xfd\xfe\xff", 9, "payload"),
	}
	seeds = append(seeds, seqWidths("k")...)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		for _, k := range []Kernel{KeyPath(), KeySeq()} {
			key, n := k.Key(nil, rec)
			if n < 0 || n > len(rec) {
				t.Fatalf("Key(%x) reported n=%d outside [0, %d]", rec, n, len(rec))
			}
			if n == 0 {
				continue
			}
			if got := append(k.Restore(nil, key), rec[n:]...); !bytes.Equal(got, rec) {
				t.Fatalf("round trip: Restore(%x) ‖ rec[%d:] = %x, want %x", key, n, got, rec)
			}
		}
	})
}

// encodePathU is encodePath for one component with a full-range seq.
func encodePathU(key string, seq uint64) []byte {
	dst := binary.AppendUvarint(nil, 1)
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	return binary.AppendUvarint(dst, seq)
}

// encodeSeqHead encodes a (key, seq)-headed record with a payload.
func encodeSeqHead(key string, seq uint64, payload string) []byte {
	dst := binary.AppendUvarint(nil, uint64(len(key)))
	dst = append(dst, key...)
	dst = binary.AppendUvarint(dst, seq)
	return append(dst, payload...)
}
