package main

import (
	"bytes"
	"math/rand"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark is meant for a few vCPUs of a shared machine, whose speed
// drifts with the neighbours' load: on a 2-vCPU VM the same 55 s run of
// the merge workload measured from 22 to 39 MB/s for nexsort within half
// an hour, with under 2% CPU steal to show for it. Timings taken minutes
// apart, as the runs of one set and the runs of two commits are, would
// compare the neighbours, not the program.
//
// So every timed operation (and every setup) is preceded by one pass of a
// fixed reference computation that shares no code with nexsort, and the
// reported timings are scaled to the host speed at which that computation
// takes refNominal:
//
//	reported = measured * refNominal / median(reference passes of the run)
//
// The reference passes interleave with the operations, so both see the
// same mix of fast and slow moments. The raw figures and the scale are
// printed with every run.
type refKernel struct {
	keys, work []uint64
	src, dst   []byte
	sink       int // keeps each pass's results live
}

// refNominal is the reference computation's time on a quiet 2-vCPU host
// of the kind the benchmark was written on. It only fixes the unit: a
// reported MB/s is the rate the operation would have had on a host where
// the reference takes this long.
const refNominal = 0.0075

// newRefKernel maps the reference computation's buffers outside the Go
// heap, so that they do not count in the peak-heap metrics or in the
// garbage collector's work. They live until the process exits.
func newRefKernel() *refKernel {
	const nKeys, nBytes = 1 << 16, 8 << 20
	mem, err := syscall.Mmap(-1, 0, 2*8*nKeys+2*nBytes,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("reference computation: " + err.Error())
	}
	words := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), 2*nKeys)
	k := &refKernel{
		keys: words[:nKeys:nKeys],
		work: words[nKeys:],
		src:  mem[2*8*nKeys : 2*8*nKeys+nBytes],
		dst:  mem[2*8*nKeys+nBytes:],
	}
	r := rand.New(rand.NewSource(1))
	for i := range k.keys {
		k.keys[i] = r.Uint64()
	}
	r.Read(k.src)
	return k
}

// run does one pass and returns its wall time in seconds. A pass sorts
// 64Ki random keys (branchy comparisons in cache) and copies and scans
// 8 MiB (memory bandwidth); it allocates nothing, so the program's heap
// cannot change its cost.
func (k *refKernel) run() float64 {
	start := time.Now()
	copy(k.work, k.keys)
	slices.Sort(k.work)
	copy(k.dst, k.src)
	k.sink += bytes.Count(k.dst, []byte{'<'}) + int(k.work[0]&1)
	return time.Since(start).Seconds()
}

// speedScale is refNominal over the median of the passes: the factor that
// turns a time measured alongside them into a nominal-host time.
func speedScale(passes []float64) float64 {
	return refNominal / median(passes)
}
