package extsort

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"

	"nexsort/internal/em"
	"nexsort/internal/sortkey"
)

// writePresortedRun spills records as one length-prefixed run, the format
// AddPresortedRun expects.
func writePresortedRun(t *testing.T, env *em.Env, recs [][]byte) *em.Stream {
	t.Helper()
	run := em.NewStream(env.Dev, em.CatMergeRun)
	w, err := run.NewWriter(nil)
	if err != nil {
		t.Fatal(err)
	}
	var lenBuf [binary.MaxVarintLen64]byte
	for _, rec := range recs {
		n := binary.PutUvarint(lenBuf[:], uint64(len(rec)))
		if _, err := w.Write(lenBuf[:n]); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return run
}

func drainSorted(t *testing.T, s *Sorter) []string {
	t.Helper()
	it, err := s.Sort()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var got []string
	for {
		rec, err := it.Next()
		if err == io.EOF {
			return got
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(rec))
	}
}

// keyOnlyKernel orders records by all their bytes but encodes none of
// them (n = 0), so every buffered record travels whole after its key.
func keyOnlyKernel() sortkey.Kernel {
	return sortkey.Kernel{
		Key:     func(dst, rec []byte) ([]byte, int) { return append(dst, rec...), 0 },
		Restore: func(dst, key []byte) []byte { return append(dst, key...) },
	}
}

// TestLoserMergeBoundaryFanIns drives the merge at the fan-ins where the
// tournament tree degenerates: a single run (no merge at all), two runs
// (one internal node), and the full memBlocks-1 fan-in, with duplicate
// keys across runs and runs of different lengths so some exhaust while
// others are still live.
func TestLoserMergeBoundaryFanIns(t *testing.T) {
	const memBlocks = 5
	for _, k := range []int{1, 2, memBlocks - 1} {
		for _, kernel := range []struct {
			name string
			k    sortkey.Kernel
		}{
			// cmp-only: the key only orders records (n = 0).
			// with-keyer: the key is the record itself and Restore
			// rebuilds it.
			{"cmp-only", keyOnlyKernel()},
			{"with-keyer", bytesKernel},
		} {
			t.Run(fmt.Sprintf("fanin=%d/%s", k, kernel.name), func(t *testing.T) {
				env := newEnv(t, 64, 16)
				s, err := New(env, em.CatMergeRun, kernel.k, memBlocks)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				var want []string
				for i := 0; i < k; i++ {
					// Run i gets i+1 records: run 0 exhausts after one
					// record while the others are still live. "dup" appears
					// in every run.
					var recs [][]byte
					for j := 0; j <= i; j++ {
						recs = append(recs, []byte(fmt.Sprintf("rec-%02d-%02d", j, i)))
					}
					recs = append(recs, []byte("zz-dup"))
					want = append(want, "zz-dup")
					for _, r := range recs[:len(recs)-1] {
						want = append(want, string(r))
					}
					if err := s.AddPresortedRun(writePresortedRun(t, env, recs)); err != nil {
						t.Fatal(err)
					}
				}
				got := drainSorted(t, s)
				if len(got) != len(want) {
					t.Fatalf("merged %d records, want %d", len(got), len(want))
				}
				for i := 1; i < len(got); i++ {
					if got[i-1] > got[i] {
						t.Fatalf("output out of order at %d: %q > %q", i, got[i-1], got[i])
					}
				}
				dups := 0
				for _, g := range got {
					if g == "zz-dup" {
						dups++
					}
				}
				if dups != k {
					t.Errorf("duplicate key survived %d times, want %d", dups, k)
				}
				s.Close()
				if live := env.Dev.Frames().Live(); live != 0 {
					t.Errorf("fan-in %d leaked %d pooled frames", k, live)
				}
				if inUse := env.Budget.InUse(); inUse != 0 {
					t.Errorf("fan-in %d leaked %d budget blocks", k, inUse)
				}
			})
		}
	}
}

// TestLoserMergeDeterministicTies pins the tie-break discipline across the
// heap→loser-tree swap: records that compare equal pop in run-index order.
// The key is only the first byte, so the trailing run tag
// records which cursor each pop came from.
func TestLoserMergeDeterministicTies(t *testing.T) {
	firstByte := sortkey.FixedPrefix(1)
	env := newEnv(t, 64, 16)
	s, err := New(env, em.CatMergeRun, firstByte, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Three runs, each holding key 'a' then key 'b', tagged by run.
	for i := 0; i < 3; i++ {
		recs := [][]byte{[]byte(fmt.Sprintf("a%d", i)), []byte(fmt.Sprintf("b%d", i))}
		if err := s.AddPresortedRun(writePresortedRun(t, env, recs)); err != nil {
			t.Fatal(err)
		}
	}
	got := strings.Join(drainSorted(t, s), " ")
	want := "a0 a1 a2 b0 b1 b2"
	if got != want {
		t.Errorf("tie order = %q, want %q", got, want)
	}
}

// TestLoserMergeLongSharedPrefix merges records that share a 64-byte
// prefix and differ only after it, so every merge decision is made past
// the point where a fixed-size inline key prefix would have tied: the
// full normalized keys must carry the order to the last byte.
func TestLoserMergeLongSharedPrefix(t *testing.T) {
	env := newEnv(t, 64, 16)
	s, err := New(env, em.CatMergeRun, bytesKernel, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	prefix := strings.Repeat("p", 64)
	var want []string
	for i := 0; i < 3; i++ {
		var recs [][]byte
		for j := 0; j < 4; j++ {
			rec := fmt.Sprintf("%s-%02d-%02d", prefix, j, i)
			recs = append(recs, []byte(rec))
			want = append(want, rec)
		}
		if err := s.AddPresortedRun(writePresortedRun(t, env, recs)); err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(want)
	if got := drainSorted(t, s); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("merged\n%q\nwant\n%q", got, want)
	}
}

// TestLoserMergeReaderErrorReleasesFrames corrupts a presorted run so the
// merge hits a non-EOF reader error mid-stream, and checks the error path
// closes every cursor and the half-written output: no pooled frame and no
// budget block may stay live after Close.
func TestLoserMergeReaderErrorReleasesFrames(t *testing.T) {
	env := newEnv(t, 64, 16)
	s, err := New(env, em.CatMergeRun, bytesKernel, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	good := writePresortedRun(t, env, [][]byte{[]byte("aaa"), []byte("mmm"), []byte("zzz")})
	// The corrupt run yields one clean record, then a length prefix far
	// beyond maxRecordLen: the reader fails with a non-EOF error only
	// after the merge is underway.
	corrupt := em.NewStream(env.Dev, em.CatMergeRun)
	w, err := corrupt.NewWriter(nil)
	if err != nil {
		t.Fatal(err)
	}
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], 3)
	if _, err := w.Write(lenBuf[:n]); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("bbb")); err != nil {
		t.Fatal(err)
	}
	n = binary.PutUvarint(lenBuf[:], uint64(maxRecordLen)+1)
	if _, err := w.Write(lenBuf[:n]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	if err := s.AddPresortedRun(good); err != nil {
		t.Fatal(err)
	}
	if err := s.AddPresortedRun(corrupt); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sort(); err == nil {
		t.Fatal("merge over a corrupt run succeeded")
	} else if !strings.Contains(err.Error(), "corrupt run") {
		t.Fatalf("unexpected error: %v", err)
	}
	s.Close()
	if live := env.Dev.Frames().Live(); live != 0 {
		t.Errorf("error path leaked %d pooled frames", live)
	}
	if inUse := env.Budget.InUse(); inUse != 0 {
		t.Errorf("error path leaked %d budget blocks", inUse)
	}
}
