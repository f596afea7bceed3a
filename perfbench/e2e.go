package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"nexsort"
)

// mb is the benchmark's megabyte: 10^6 bytes.
const mb = 1e6

// opNames are a round's operations, in the order they run.
var opNames = []string{"nexsort", "mergesort", "inmemory", "merge"}

var sortAlgorithms = map[string]nexsort.Algorithm{
	"nexsort":   nexsort.NEXSORT,
	"mergesort": nexsort.MergeSort,
	"inmemory":  nexsort.InMemory,
}

// opSample is one measured operation.
type opSample struct {
	wall     float64 // seconds
	inBytes  int64   // bytes read: the input, or left plus right for merge
	ios      int64   // Result.TotalIOs (sorts)
	spill    int64   // physical bytes written to scratch (sorts)
	peakHeap uint64  // high-water mark of heap object bytes
	elements int64   // input elements: the document's, or left plus right
	proc     procDelta
	ref      float64 // the reference pass run just before (see speed.go)
}

// gate is the correctness check every output passes through. All sort
// outputs must be byte-identical, to each other and across rounds; the
// first one is also verified with nexsort.Check. Merge outputs must repeat
// byte for byte, the first passes Check, and every merge report must show
// the Matched and OutputElements the setup's construction dictates. A
// block-count difference between rounds of one algorithm is a failure too:
// the I/O ledger is deterministic at every parallelism level.
type gate struct {
	p         *prepared
	sortHash  []byte
	mergeHash []byte
	ios       map[string]int64
}

func newGate(p *prepared) *gate { return &gate{p: p, ios: map[string]int64{}} }

// checkSort verifies a sort's output file.
func (g *gate) checkSort(algo, path string, ios int64) error {
	h, size, err := hashFile(path)
	if err != nil {
		return err
	}
	if size == 0 {
		return fmt.Errorf("%s: empty output", algo)
	}
	if g.sortHash == nil {
		if err := g.checkSorted(path, g.p.elements); err != nil {
			return fmt.Errorf("%s: %w", algo, err)
		}
		g.sortHash = h
	} else if string(h) != string(g.sortHash) {
		return fmt.Errorf("%s: output differs from the first sort output", algo)
	}
	if prev, ok := g.ios[algo]; ok && prev != ios {
		return fmt.Errorf("%s: %d block I/Os, %d in an earlier round", algo, ios, prev)
	}
	g.ios[algo] = ios
	return nil
}

// checkMerge verifies a merge's output file and report.
func (g *gate) checkMerge(path string, rep *nexsort.MergeReport) error {
	if rep.Matched != g.p.expMatched || rep.OutputElements != g.p.expMergeOut {
		return fmt.Errorf("merge: matched %d, output elements %d; the construction gives %d and %d",
			rep.Matched, rep.OutputElements, g.p.expMatched, g.p.expMergeOut)
	}
	h, _, err := hashFile(path)
	if err != nil {
		return err
	}
	if g.mergeHash == nil {
		if err := g.checkSorted(path, g.p.expMergeOut); err != nil {
			return fmt.Errorf("merge: %w", err)
		}
		g.mergeHash = h
	} else if string(h) != string(g.mergeHash) {
		return fmt.Errorf("merge: output differs from the first merge output")
	}
	return nil
}

func (g *gate) checkSorted(path string, elements int64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rep, err := nexsort.Check(f, g.p.crit, 0)
	if err != nil {
		return err
	}
	if !rep.Sorted {
		return fmt.Errorf("output is not sorted: %+v", rep.Violation)
	}
	if rep.Elements != elements {
		return fmt.Errorf("output has %d elements, want %d", rep.Elements, elements)
	}
	return nil
}

func hashFile(path string) ([]byte, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return nil, 0, err
	}
	return h.Sum(nil), n, nil
}

// removeOld deletes the previous round's file at path, if any. Every output
// is written to a fresh file: ext4 flushes a file to disk when it is
// truncated to zero and rewritten, so overwriting last round's output
// would make every operation wait on the shared disk.
func removeOld(path string) error {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// createFresh is os.Create on a fresh file (see removeOld).
func createFresh(path string) (*os.File, error) {
	if err := removeOld(path); err != nil {
		return nil, err
	}
	return os.Create(path)
}

func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// heapSampler records the high-water mark of live heap object bytes
// (runtime/metrics, sampled every millisecond) while an operation runs.
type heapSampler struct {
	stop chan struct{}
	peak chan uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: heapMetric}}
		var peak uint64
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-s.stop:
				s.peak <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the peak it saw.
func (s *heapSampler) finish() uint64 {
	close(s.stop)
	return <-s.peak
}

// runOp runs one operation of a round through the public API, timed and
// heap-sampled, and checks its output.
func runOp(p *prepared, g *gate, k *refKernel, op string) (opSample, error) {
	out := p.path(op + ".out.xml")
	if err := removeOld(out); err != nil {
		return opSample{}, err
	}
	runtime.GC()
	ref := k.run()
	before := readProc()
	hs := startHeapSampler()
	start := time.Now()
	var (
		res  *nexsort.Result
		mrep *nexsort.MergeReport
		err  error
	)
	if op == "merge" {
		left := p.path("nexsort.out.xml")
		right := p.partnerSorted
		if right == "" {
			right = left
		}
		mrep, err = nexsort.MergeFiles(left, right, out, p.crit, nexsort.MergeOptions{})
	} else {
		res, err = nexsort.SortFile(p.input, out, p.w.config(p.dir),
			nexsort.Options{Criterion: p.crit, Algorithm: sortAlgorithms[op]})
	}
	s := opSample{wall: time.Since(start).Seconds(), ref: ref}
	s.peakHeap = hs.finish()
	s.proc = readProc().sub(before)
	if err != nil {
		return s, fmt.Errorf("%s: %w", op, err)
	}
	if op == "merge" {
		l, err := fileSize(p.path("nexsort.out.xml"))
		if err != nil {
			return s, err
		}
		r := l
		if p.partnerSorted != "" {
			if r, err = fileSize(p.partnerSorted); err != nil {
				return s, err
			}
		}
		s.inBytes = l + r
		s.elements = mrep.ElementsLeft + mrep.ElementsRight
		return s, g.checkMerge(out, mrep)
	}
	s.inBytes = p.inputBytes
	s.elements = res.Elements
	s.ios = res.TotalIOs
	for cat, c := range res.IOs {
		if cat != "input" && cat != "output" {
			s.spill += c.PhysWriteBytes
		}
	}
	return s, g.checkSort(op, out, s.ios)
}

// roundResult is one round's samples, by operation.
type roundResult struct {
	samples map[string]opSample
	wall    float64 // the four operations' wall time
	failed  int
}

// runRound runs the four operations. A failed nexsort leaves the merge
// without an input, so it is skipped and counted as failed too.
func runRound(p *prepared, g *gate, k *refKernel) roundResult {
	rr := roundResult{samples: map[string]opSample{}}
	for _, op := range opNames {
		if op == "merge" && rr.samples["nexsort"].inBytes == 0 {
			rr.failed++
			fmt.Fprintln(os.Stderr, "FAILED: merge: skipped, nexsort produced no checked input")
			continue
		}
		s, err := runOp(p, g, k, op)
		rr.wall += s.wall
		if err != nil {
			rr.failed++
			fmt.Fprintln(os.Stderr, "FAILED:", err)
			continue
		}
		rr.samples[op] = s
	}
	return rr
}

// loop runs rounds back to back, at least minRounds of them, starting
// another only while it is expected to finish within the time budget.
func loop(seconds float64, minRounds int, fn func(i int)) int {
	start := time.Now()
	var longest float64
	i := 0
	for ; ; i++ {
		elapsed := time.Since(start).Seconds()
		if i >= minRounds && elapsed+longest > seconds {
			break
		}
		t0 := time.Now()
		fn(i)
		if d := time.Since(t0).Seconds(); d > longest {
			longest = d
		}
	}
	return i
}

// runE2E is the untraced run: it reports the end-to-end metrics, with
// rates scaled to the nominal host speed (see speed.go).
func runE2E(cfg runConfig, p *prepared, k *refKernel) *result {
	g := newGate(p)
	samples := map[string][]opSample{}
	res := &result{Metrics: map[string]metric{}}
	rounds := loop(cfg.seconds, 1, func(int) {
		rr := runRound(p, g, k)
		for op, s := range rr.samples {
			samples[op] = append(samples[op], s)
		}
		res.Attempted += len(opNames)
		res.Failed += rr.failed
	})
	fmt.Printf("rounds: %d, operations attempted %d, failed %d\n", rounds, res.Attempted, res.Failed)
	var passes []float64
	for _, ss := range samples {
		for _, s := range ss {
			passes = append(passes, s.ref)
		}
	}
	scale := speedScale(passes)
	fmt.Printf("host speed: reference pass median %.5fs over %d passes, nominal %.5fs; reported rates are raw rates / %.4f\n",
		median(passes), len(passes), refNominal, scale)

	for _, op := range opNames {
		ss := samples[op]
		if len(ss) == 0 {
			continue
		}
		var rates, heaps, walls []float64
		for _, s := range ss {
			rates = append(rates, float64(s.inBytes)/mb/s.wall)
			heaps = append(heaps, float64(s.peakHeap)/mb)
			walls = append(walls, s.wall)
		}
		fmt.Printf("op %-9s n=%d wall median %.4fs min %.4fs max %.4fs (raw %.3f MB/s), peak heap median %.2fMB min %.2fMB max %.2fMB\n",
			op, len(ss), median(walls), minOf(walls), maxOf(walls), median(rates), median(heaps), minOf(heaps), maxOf(heaps))
		res.Metrics[op+".mb_s"] = metric{median(rates) / scale, "MB/s"}
		res.Metrics[op+".peak_heap_mb"] = metric{median(heaps), "MB"}
		if op == "nexsort" || op == "mergesort" {
			res.Metrics[op+".ios"] = metric{float64(ss[0].ios), "count"}
			res.Metrics[op+".spill_amp"] = metric{float64(ss[0].spill) / float64(ss[0].inBytes), "ratio"}
		}
	}
	res.Metrics["ok_frac"] = metric{1 - float64(res.Failed)/float64(res.Attempted), "frac"}
	res.Correct = res.Failed == 0
	return res
}
