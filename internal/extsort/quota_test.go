package extsort

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"nexsort/internal/em"
)

// quotaRecords generates a deterministic record set small enough to form a
// handful of initial runs under a 3-block sorter with 64-byte blocks.
func quotaRecords(n int) [][]byte {
	rng := rand.New(rand.NewSource(99))
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = []byte(fmt.Sprintf("rec-%04d-%08d", rng.Intn(10000), i))
	}
	return recs
}

// quotaSort runs one sort of recs under the given scratch quota (0 =
// unlimited) and returns the concatenated output, the sorter stats, the
// terminal error, and the blocks the device allocated.
func quotaSort(t *testing.T, recs [][]byte, quota int64) (out []byte, st Stats, allocated int64, err error) {
	t.Helper()
	env, envErr := em.NewEnv(em.Config{BlockSize: 64, MemBlocks: 16, ScratchQuotaBlocks: quota})
	if envErr != nil {
		t.Fatal(envErr)
	}
	defer func() {
		allocated = env.Dev.Allocated()
		if cErr := env.Close(); cErr != nil && err == nil {
			err = cErr
		}
		if live := env.Dev.Frames().Live(); live != 0 {
			t.Errorf("quota=%d: %d frames live after close", quota, live)
		}
		if inUse := env.Budget.InUse(); inUse != 0 {
			t.Errorf("quota=%d: %d budget blocks in use after close", quota, inUse)
		}
	}()

	s, err := New(env, em.CatMergeRun, bytesKernel, 3)
	if err != nil {
		return nil, st, 0, err
	}
	defer s.Close()
	for _, rec := range recs {
		if err := s.Add(rec); err != nil {
			return nil, s.Stats(), 0, err
		}
	}
	it, err := s.Sort()
	if err != nil {
		return nil, s.Stats(), 0, err
	}
	defer it.Close()
	var buf bytes.Buffer
	for {
		rec, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, s.Stats(), 0, err
		}
		buf.Write(rec)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), s.Stats(), 0, nil
}

// TestScratchQuotaDegradation drives the scratch quota down from "roomy"
// to "impossible" and checks the three regimes of the failure model: with
// room to spare the sort is byte-identical to the unlimited run; as the
// quota tightens the sorter degrades gracefully — it streams the final
// merge instead of materializing one more run, still byte-identical; and
// below the space the initial runs themselves need, it fails with the
// typed ErrScratchExhausted, leak-free.
func TestScratchQuotaDegradation(t *testing.T) {
	recs := quotaRecords(60)

	want, cleanStats, allocated, err := quotaSort(t, recs, 0)
	if err != nil {
		t.Fatalf("unlimited sort failed: %v", err)
	}
	if !cleanStats.Spilled || cleanStats.InitialRuns < 2 {
		t.Fatalf("workload too small to spill: stats=%+v", cleanStats)
	}
	if cleanStats.StreamedFinalMerge {
		t.Fatalf("unlimited sort claims scratch-pressure degradation: stats=%+v", cleanStats)
	}
	t.Logf("unlimited run: %d initial runs, %d merge passes, %d blocks allocated",
		cleanStats.InitialRuns, cleanStats.MergePasses, allocated)

	var degraded, maxExhausted, minSuccess int64
	for quota := allocated; quota >= 1; quota-- {
		out, st, _, err := quotaSort(t, recs, quota)
		switch {
		case err == nil:
			if !bytes.Equal(out, want) {
				t.Fatalf("quota=%d: output differs from unlimited run (streamed=%v)",
					quota, st.StreamedFinalMerge)
			}
			if st.StreamedFinalMerge && degraded == 0 {
				degraded = quota
			}
			minSuccess = quota
		case em.IsExhausted(err):
			if maxExhausted == 0 {
				maxExhausted = quota
			}
		default:
			t.Fatalf("quota=%d: untyped error %v", quota, err)
		}
	}
	if degraded == 0 {
		t.Error("no quota triggered the streamed final merge; NearFull never fired")
	}
	if maxExhausted == 0 {
		t.Error("no quota produced ErrScratchExhausted; the capacity layer never refused a write")
	}
	// The degradation must buy real headroom: some quota that streams the
	// final merge and succeeds sits below a quota that a materializing run
	// could not fit. (The regimes interleave near the top of the range —
	// the 7/8 NearFull heuristic can miss a final pass that barely does
	// not fit — so the comparison is min success vs max exhaustion, not a
	// clean boundary.)
	if minSuccess >= maxExhausted {
		t.Errorf("degradation bought no headroom: smallest working quota %d, largest exhausted quota %d",
			minSuccess, maxExhausted)
	}
	t.Logf("first streamed merge at quota=%d, smallest working quota=%d, largest exhausted quota=%d",
		degraded, minSuccess, maxExhausted)
}
