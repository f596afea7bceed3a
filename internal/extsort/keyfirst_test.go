package extsort

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"nexsort/internal/gen"
	"nexsort/internal/keypath"
	"nexsort/internal/keys"
	"nexsort/internal/sortkey"
	"nexsort/internal/xmltok"
)

// TestKeyFirstNoLonger is the memory-neutrality property of key-first
// batches: for key-path records whose keys avoid the four escaped bytes
// (0x00, 0x01, 0xFE, 0xFF — none can occur in XML text) and whose seqs are
// below 2^28, the buffered form key ‖ rec[n:] is at most len(rec) bytes,
// so a batch that fit its M−1 frames as records still fits them.
func TestKeyFirstNoLonger(t *testing.T) {
	k := sortkey.KeyPath()
	prop := func(rawKeys []string, seqs []uint32, text string) bool {
		path := []keypath.Component{{Key: "", Seq: 0}}
		for i, raw := range rawKeys {
			key := strings.Map(func(r rune) rune {
				if r < 2 || r == 0xFE || r == 0xFF {
					return 'x'
				}
				return r
			}, raw)
			var seq uint32
			if i < len(seqs) {
				seq = seqs[i] % (1 << 28)
			}
			path = append(path, keypath.Component{Key: key, Seq: int64(seq)})
		}
		rec := keypath.AppendRecord(nil, keypath.Record{
			Path: path,
			Tok:  xmltok.Token{Kind: xmltok.KindText, Text: text},
		})
		key, n := k.Key(nil, rec)
		if n == 0 {
			t.Logf("valid record %x encodes no prefix", rec)
			return false
		}
		return len(key)+len(rec)-n <= len(rec)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestSortXMLArenaStaysInFrames sorts a deep generated document at a small
// M and the default 64 KiB block, so the batch is cut many times, and
// checks that no key-first record ever spills out of the batch's M−1 arena
// frames onto the heap: the byte each record saves over its spilled form
// covers the tail a frame wastes when the next record does not fit.
func TestSortXMLArenaStaysInFrames(t *testing.T) {
	var doc bytes.Buffer
	spec := gen.IBMSpec{Height: 10, MaxFanout: 6, MaxElements: 4000, Seed: 3}
	if _, err := spec.Write(&doc); err != nil {
		t.Fatal(err)
	}
	c := &keys.Criterion{Rules: []keys.Rule{{Tag: "*", Source: keys.ByAttr(gen.DefaultKeyAttr)}}}
	env := newEnv(t, 64<<10, 6)
	var out strings.Builder
	rep, err := SortXML(env, c, bytes.NewReader(doc.Bytes()), &out, XMLOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.InitialRuns < 4 {
		t.Fatalf("expected several initial runs, got %+v", rep)
	}
	if n := rep.arenaHeapAllocs; n != 0 {
		t.Errorf("%d key-first records fell back to the heap over %d runs (%d records, %d bytes)",
			n, rep.InitialRuns, rep.Records, rep.RecordBytes)
	}
	if out.String() != oracleSort(t, doc.String(), c, 0) {
		t.Error("output differs from the oracle")
	}
}
