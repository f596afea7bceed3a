package extsort

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"nexsort/internal/em"
	"nexsort/internal/keypath"
	"nexsort/internal/sortkey"
	"nexsort/internal/xmltok"
)

// BenchmarkSorterExternal measures a genuinely external record sort
// (multiple initial runs plus merging).
func BenchmarkSorterExternal(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	recs := make([][]byte, 20000)
	var bytesTotal int64
	for i := range recs {
		recs[i] = []byte(fmt.Sprintf("%08d-%032x", rng.Intn(1e8), rng.Int63()))
		bytesTotal += int64(len(recs[i]))
	}
	b.SetBytes(bytesTotal)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env, err := em.NewEnv(em.Config{BlockSize: 4096, MemBlocks: 16})
		if err != nil {
			b.Fatal(err)
		}
		s, err := New(env, em.CatMergeRun, bytesKernel, 14)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range recs {
			if err := s.Add(r); err != nil {
				b.Fatal(err)
			}
		}
		it, err := s.Sort()
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			if _, err := it.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != len(recs) {
			b.Fatalf("%d records out", n)
		}
		it.Close()
		s.Close()
		env.Close()
	}
}

// BenchmarkFramePool measures the allocation profile of the extsort record
// path — Add's per-record copy plus run formation and merging — which is
// the hot loop the frame-pool arena exists for. Run with -benchmem.
func BenchmarkFramePool(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	recs := make([][]byte, 50000)
	var bytesTotal int64
	for i := range recs {
		recs[i] = []byte(fmt.Sprintf("%08d-%024x", rng.Intn(1e8), rng.Int63()))
		bytesTotal += int64(len(recs[i]))
	}
	b.SetBytes(bytesTotal)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env, err := em.NewEnv(em.Config{BlockSize: 4096, MemBlocks: 32, Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
		s, err := New(env, em.CatMergeRun, bytesKernel, 30)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range recs {
			if err := s.Add(r); err != nil {
				b.Fatal(err)
			}
		}
		it, err := s.Sort()
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			if _, err := it.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != len(recs) {
			b.Fatalf("%d records out", n)
		}
		it.Close()
		s.Close()
		env.Close()
	}
}

// BenchmarkKeyPathSorterExternal measures the external sort on its product
// workload: keypath-encoded records under the comparison kernel (key-first
// batches + loser-tree merge). This is the configuration SortXML and
// core's subtree sorts run, so its ns/op is the end-to-end figure for the
// sort hot path.
func BenchmarkKeyPathSorterExternal(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	keyPool := []string{"", "NE", "SW", "alpha", "beta", "gamma", "delta"}
	recs := make([][]byte, 20000)
	var bytesTotal int64
	for i := range recs {
		depth := 1 + rng.Intn(6)
		rec := keypath.Record{Path: make([]keypath.Component, depth)}
		for d := range rec.Path {
			rec.Path[d] = keypath.Component{
				Key: keyPool[rng.Intn(len(keyPool))],
				Seq: int64(rng.Intn(40)),
			}
		}
		rec.Tok = xmltok.Token{Kind: xmltok.KindText, Text: fmt.Sprintf("text-%06d", i)}
		recs[i] = keypath.AppendRecord(nil, rec)
		bytesTotal += int64(len(recs[i]))
	}
	b.SetBytes(bytesTotal)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env, err := em.NewEnv(em.Config{BlockSize: 4096, MemBlocks: 16, Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
		s, err := New(env, em.CatMergeRun, sortkey.KeyPath(), 14)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range recs {
			if err := s.Add(r); err != nil {
				b.Fatal(err)
			}
		}
		it, err := s.Sort()
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			if _, err := it.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != len(recs) {
			b.Fatalf("%d records out", n)
		}
		it.Close()
		s.Close()
		env.Close()
	}
}
