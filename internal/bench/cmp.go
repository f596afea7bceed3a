package bench

import (
	"bytes"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"

	"nexsort/internal/keypath"
	"nexsort/internal/sortkey"
)

// CmpConfig parameterizes the comparison-kernel experiment.
type CmpConfig struct {
	Scale Scale
	Seed  int64
	// Runs is the merge fan-in k (default 16).
	Runs int
}

// CmpRow is one measured comparison path. For the comparator rows an op is
// one record comparison; for the merge rows an op is one full k-way merge,
// with Comparisons the comparator invocations of a single merge and Bound
// the k-1 + (n+k)·⌈log₂k⌉ tournament-tree budget (0 where not applicable).
type CmpRow struct {
	Name        string
	Records     int64
	Runs        int
	NsPerOp     int64
	AllocsPerOp int64
	BytesPerOp  int64
	Comparisons int64
	Bound       int64
}

// legacyCompareEncoded is the comparator this experiment exists to retire:
// the pre-kernel keypath.CompareEncoded, which materialized every path key
// as a string (one allocation per component per comparison) on the sort
// hot path. Kept here verbatim as the measured baseline.
func legacyCompareEncoded(a, b []byte) int {
	ra := &legacyCursor{buf: a}
	rb := &legacyCursor{buf: b}
	na, _ := binary.ReadUvarint(ra)
	nb, _ := binary.ReadUvarint(rb)
	n := na
	if nb < n {
		n = nb
	}
	for i := uint64(0); i < n; i++ {
		ka := ra.readString()
		kb := rb.readString()
		if ka != kb {
			if ka < kb {
				return -1
			}
			return 1
		}
		sa, _ := binary.ReadUvarint(ra)
		sb, _ := binary.ReadUvarint(rb)
		if sa != sb {
			if sa < sb {
				return -1
			}
			return 1
		}
	}
	switch {
	case na < nb:
		return -1
	case na > nb:
		return 1
	default:
		return 0
	}
}

type legacyCursor struct {
	buf []byte
	pos int
}

func (c *legacyCursor) ReadByte() (byte, error) {
	if c.pos >= len(c.buf) {
		return 0, io.EOF
	}
	b := c.buf[c.pos]
	c.pos++
	return b, nil
}

func (c *legacyCursor) readString() string {
	n, err := binary.ReadUvarint(c)
	if err != nil || c.pos+int(n) > len(c.buf) {
		return ""
	}
	s := string(c.buf[c.pos : c.pos+int(n)])
	c.pos += int(n)
	return s
}

// genKeyPathRecords synthesizes n encoded key-path records with the shape
// the XML sorters produce: shared ancestor prefixes, short keys, small
// seqs — so comparisons routinely walk several equal components before
// deciding, the case full normalized keys turn into one memcmp.
func genKeyPathRecords(n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	keyPool := []string{"", "NE", "SW", "alpha", "beta", "gamma", "delta", "k\x00z"}
	recs := make([][]byte, n)
	for i := range recs {
		depth := 1 + rng.Intn(6)
		rec := keypath.Record{Path: make([]keypath.Component, depth)}
		for d := range rec.Path {
			rec.Path[d] = keypath.Component{
				Key: keyPool[rng.Intn(len(keyPool))],
				Seq: int64(rng.Intn(40)),
			}
		}
		recs[i] = keypath.AppendRecord(nil, rec)
	}
	return recs
}

// countingHeap replays the container/heap merge loop the loser tree
// replaced, counting comparator invocations.
type countingHeap struct {
	idx  []int // cursor index per heap slot
	recs [][][]byte
	head []int
	cmps *int64
}

func (h countingHeap) Len() int { return len(h.idx) }
func (h countingHeap) Less(i, j int) bool {
	*h.cmps++
	a, b := h.idx[i], h.idx[j]
	c := sortkey.CompareKeyPath(h.recs[a][h.head[a]], h.recs[b][h.head[b]])
	if c != 0 {
		return c < 0
	}
	return a < b
}
func (h countingHeap) Swap(i, j int) { h.idx[i], h.idx[j] = h.idx[j], h.idx[i] }
func (h *countingHeap) Push(x any)   { h.idx = append(h.idx, x.(int)) }
func (h *countingHeap) Pop() any {
	old := h.idx
	x := old[len(old)-1]
	h.idx = old[:len(old)-1]
	return x
}

// dealRuns splits sorted records round-robin into k sorted runs.
func dealRuns(sorted [][]byte, k int) [][][]byte {
	runs := make([][][]byte, k)
	for i, r := range sorted {
		runs[i%k] = append(runs[i%k], r)
	}
	return runs
}

func mergeWithHeap(runs [][][]byte) (out int, cmps int64) {
	h := &countingHeap{recs: runs, head: make([]int, len(runs)), cmps: &cmps}
	for i, r := range runs {
		if len(r) > 0 {
			heap.Push(h, i)
		}
	}
	for h.Len() > 0 {
		cur := h.idx[0]
		out++
		h.head[cur]++
		if h.head[cur] == len(runs[cur]) {
			heap.Pop(h)
			continue
		}
		heap.Fix(h, 0)
	}
	return out, cmps
}

func mergeWithLoserTree(runs [][][]byte) (out int, cmps int64) {
	head := make([]int, len(runs))
	eof := make([]bool, len(runs))
	for i, r := range runs {
		if len(r) == 0 {
			eof[i] = true
		}
	}
	t := sortkey.NewLoserTree(len(runs), func(a, b int32) bool {
		if eof[a] != eof[b] {
			return !eof[a]
		}
		if eof[a] {
			return a < b
		}
		c := sortkey.CompareKeyPath(runs[a][head[a]], runs[b][head[b]])
		if c != 0 {
			return c < 0
		}
		return a < b
	})
	for {
		w := t.Winner()
		if eof[w] {
			return out, t.Comparisons()
		}
		out++
		head[w]++
		if head[w] == len(runs[w]) {
			eof[w] = true
		}
		t.Fix()
	}
}

// Cmp benchmarks the comparison kernel against what it replaced: the
// allocating legacy comparator vs the zero-allocation kernel comparator vs
// raw bytes.Compare over precomputed normalized keys, then a k-way merge
// selecting with the old binary heap vs the loser tree. The loser-tree
// comparison count is cross-checked against the k-1 + (n+k)·⌈log₂k⌉
// tournament bound; exceeding it is an error, not a slow result.
func Cmp(cfg CmpConfig) ([]CmpRow, error) {
	k := cfg.Runs
	if k == 0 {
		k = 16
	}
	n := int(cfg.Scale.n(20000))
	recs := genKeyPathRecords(n, cfg.Seed+31)

	var rows []CmpRow
	benchCompare := func(name string, cmp func(a, b []byte) int) {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := recs[i%n]
				q := recs[(i*7+1)%n]
				cmp(p, q)
			}
		})
		rows = append(rows, CmpRow{
			Name: name, Records: int64(n),
			NsPerOp:     res.NsPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		})
	}
	benchCompare("compare/legacy-decoding", legacyCompareEncoded)
	benchCompare("compare/kernel", sortkey.CompareKeyPath)

	keys := make([][]byte, n)
	for i, r := range recs {
		keys[i], _ = sortkey.AppendKeyPathKey(nil, r)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bytes.Compare(keys[i%n], keys[(i*7+1)%n])
		}
	})
	rows = append(rows, CmpRow{
		Name: "compare/normalized-memcmp", Records: int64(n),
		NsPerOp:     res.NsPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
	})

	sorted := make([][]byte, n)
	copy(sorted, recs)
	slices.SortFunc(sorted, sortkey.CompareKeyPath)
	runs := dealRuns(sorted, k)

	var heapOut int
	var heapCmps int64
	resHeap := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			heapOut, heapCmps = mergeWithHeap(runs)
		}
	})
	if heapOut != n {
		return nil, fmt.Errorf("bench: heap merge produced %d of %d records", heapOut, n)
	}
	rows = append(rows, CmpRow{
		Name: "merge/heap", Records: int64(n), Runs: k,
		NsPerOp:     resHeap.NsPerOp(),
		AllocsPerOp: resHeap.AllocsPerOp(),
		BytesPerOp:  resHeap.AllocedBytesPerOp(),
		Comparisons: heapCmps,
	})

	var ltOut int
	var ltCmps int64
	resLT := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ltOut, ltCmps = mergeWithLoserTree(runs)
		}
	})
	if ltOut != n {
		return nil, fmt.Errorf("bench: loser-tree merge produced %d of %d records", ltOut, n)
	}
	depth := int64(math.Ceil(math.Log2(float64(k))))
	bound := int64(k-1) + (int64(n)+int64(k))*depth
	if ltCmps > bound {
		return nil, fmt.Errorf("bench: loser tree spent %d comparisons, above the n·⌈log₂k⌉ bound %d (n=%d k=%d)",
			ltCmps, bound, n, k)
	}
	rows = append(rows, CmpRow{
		Name: "merge/loser-tree", Records: int64(n), Runs: k,
		NsPerOp:     resLT.NsPerOp(),
		AllocsPerOp: resLT.AllocsPerOp(),
		BytesPerOp:  resLT.AllocedBytesPerOp(),
		Comparisons: ltCmps,
		Bound:       bound,
	})
	return rows, nil
}

// CmpTable renders the comparison-kernel experiment.
func CmpTable(rows []CmpRow) *Table {
	t := &Table{
		Title:  "Comparison kernel — normalized keys and loser-tree selection vs the decoded comparator and binary heap (not a paper figure)",
		Header: []string{"path", "records", "runs", "ns/op", "allocs/op", "B/op", "comparisons", "bound"},
	}
	for _, r := range rows {
		runsCell, cmpCell, boundCell := "-", "-", "-"
		if r.Runs > 0 {
			runsCell = fmt.Sprintf("%d", r.Runs)
			cmpCell = d64(r.Comparisons)
			if r.Bound > 0 {
				boundCell = d64(r.Bound)
			}
		}
		t.Rows = append(t.Rows, []string{
			r.Name, d64(r.Records), runsCell,
			d64(r.NsPerOp), d64(r.AllocsPerOp), d64(r.BytesPerOp),
			cmpCell, boundCell,
		})
	}
	return t
}
