package extsort

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"nexsort/internal/em"
)

// Engine-level tests for pipelined run formation: the worker pool must not
// change a single output byte, and the error/Close paths must drain every
// in-flight batch before the budget is released — no leaks, no panics,
// whichever call surfaces the failure.

// poolEnv builds an in-memory environment with the worker pool switched on
// and an armable fault backend spliced beneath the accounting layers.
func poolEnv(t *testing.T, memBlocks, parallelism int) (*em.Env, *em.FaultBackend) {
	t.Helper()
	var fb *em.FaultBackend
	env, err := em.NewEnv(em.Config{
		BlockSize:   256,
		MemBlocks:   memBlocks,
		Parallelism: parallelism,
		WrapBackend: func(b em.Backend) em.Backend {
			fb = em.NewFaultBackend(b)
			return fb
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { env.Close() })
	return env, fb
}

// addRecords feeds n deterministic pseudo-random records, stopping at the
// first Add error.
func addRecords(s *Sorter, n int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		rec := fmt.Sprintf("%08d-%06d", rng.Intn(1_000_000), i)
		if err := s.Add([]byte(rec)); err != nil {
			return err
		}
	}
	return nil
}

// collect drains the iterator into one flat string per record.
func collect(t *testing.T, it *Iterator) []string {
	t.Helper()
	var out []string
	for {
		rec, err := it.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(rec))
	}
}

// TestParallelRunFormationMatchesSequential pins the engine's determinism
// contract directly: same records in, byte-identical sequence out, same run
// structure and same per-category ledger, at any parallelism. Fan-in 3
// over about 40 initial runs takes several merge passes, so the pooled
// dispatch of intermediate merge groups (mergePass) is covered too.
func TestParallelRunFormationMatchesSequential(t *testing.T) {
	const records = 2000
	run := func(parallelism int) ([]string, Stats, map[string]em.IOCount) {
		env, _ := poolEnv(t, 64, parallelism)
		s, err := New(env, em.CatMergeRun, bytesKernel, 4)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := addRecords(s, records, 42); err != nil {
			t.Fatalf("parallelism=%d: %v", parallelism, err)
		}
		it, err := s.Sort()
		if err != nil {
			t.Fatalf("parallelism=%d: %v", parallelism, err)
		}
		defer it.Close()
		return collect(t, it), s.Stats(), env.Stats.Snapshot()
	}

	wantOut, wantStats, wantIOs := run(1)
	if wantStats.MergePasses < 2 {
		t.Fatalf("sequential run took %d merge passes; want at least 2 so intermediate passes are covered", wantStats.MergePasses)
	}
	for _, p := range []int{2, 8} {
		out, stats, ios := run(p)
		if stats != wantStats {
			t.Errorf("parallelism=%d: stats %+v, sequential %+v", p, stats, wantStats)
		}
		if !reflect.DeepEqual(ios, wantIOs) {
			t.Errorf("parallelism=%d: ledger %v, sequential %v", p, ios, wantIOs)
		}
		if len(out) != len(wantOut) {
			t.Fatalf("parallelism=%d: %d records, sequential %d", p, len(out), len(wantOut))
		}
		for i := range out {
			if out[i] != wantOut[i] {
				t.Fatalf("parallelism=%d: record %d = %q, sequential %q", p, i, out[i], wantOut[i])
			}
		}
	}
}

// TestWorkerFaultDrainsAndReleasesBudget arms a single write fault so that
// a pooled batch fails mid-spill, then checks the contract of the error
// path: the failure surfaces as the injected error from Add or Sort, Close
// drains the remaining in-flight workers without panicking, and afterwards
// not one budget block is still granted. (A double release would panic in
// Budget.Release, so InUse()==0 proves exactly-once accounting.)
func TestWorkerFaultDrainsAndReleasesBudget(t *testing.T) {
	sentinel := errors.New("injected spill failure")
	for _, parallelism := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("parallelism=%d", parallelism), func(t *testing.T) {
			env, fb := poolEnv(t, 64, parallelism)
			s, err := New(env, em.CatMergeRun, bytesKernel, 4)
			if err != nil {
				t.Fatal(err)
			}
			fb.FailWriteAfter(5, sentinel)

			addErr := addRecords(s, 2000, 7)
			var sortErr error
			if addErr == nil {
				var it *Iterator
				if it, sortErr = s.Sort(); sortErr == nil {
					it.Close()
				}
			}
			err = addErr
			if err == nil {
				err = sortErr
			}
			if err == nil {
				t.Fatal("armed write fault never surfaced from Add or Sort")
			}
			if !errors.Is(err, sentinel) {
				t.Fatalf("surfaced error %v, want the injected fault", err)
			}

			s.Close()
			s.Close() // idempotent, must not double-release
			if n := env.Budget.InUse(); n != 0 {
				t.Fatalf("%d budget blocks still granted after Close", n)
			}
		})
	}
}

// TestCloseMidFlightReleasesBudget abandons the sorter while batches are
// still being spilled on workers — the caller-gave-up path. Close must wait
// for them and hand back every block.
func TestCloseMidFlightReleasesBudget(t *testing.T) {
	env, _ := poolEnv(t, 64, 8)
	s, err := New(env, em.CatMergeRun, bytesKernel, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := addRecords(s, 2000, 11); err != nil {
		t.Fatal(err)
	}
	s.Close() // no Sort: in-flight workers must still be drained
	if n := env.Budget.InUse(); n != 0 {
		t.Fatalf("%d budget blocks still granted after mid-flight Close", n)
	}
}
