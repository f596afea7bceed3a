package merge

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nexsort/internal/keys"
)

// benchDocs builds two pre-sorted documents sharing about half their keys.
func benchDocs() (string, string, *keys.Criterion) {
	c := &keys.Criterion{Rules: []keys.Rule{{Tag: "item", Source: keys.ByAttr("id")}}}
	build := func(seed int64) string {
		rng := rand.New(rand.NewSource(seed))
		var sb strings.Builder
		sb.WriteString("<catalog>")
		id := 0
		for i := 0; i < 5000; i++ {
			id += 1 + rng.Intn(3) // sorted, with gaps so halves overlap
			fmt.Fprintf(&sb, `<item id="%08d" v="%d"><d>payload %d</d></item>`, id, rng.Intn(100), i)
		}
		sb.WriteString("</catalog>")
		return sb.String()
	}
	return build(1), build(2), c
}

// BenchmarkStreamingMerge measures the single-pass structural merge.
func BenchmarkStreamingMerge(b *testing.B) {
	left, right, c := benchDocs()
	b.SetBytes(int64(len(left) + len(right)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Documents(strings.NewReader(left), strings.NewReader(right), c, io.Discard, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamingMergeFile is BenchmarkStreamingMerge into a real
// file, where every Write the merge issues is a system call; writes/op
// reports how many reached the file.
func BenchmarkStreamingMergeFile(b *testing.B) {
	left, right, c := benchDocs()
	benchMergeToFile(b, left, right, c)
}

// BenchmarkStreamingMergeDeep merges two documents whose single matched
// child holds nearly all of each input, into a real file.
func BenchmarkStreamingMergeDeep(b *testing.B) {
	benchMergeToFile(b, deepMatchedDoc(1<<20, 0, 2), deepMatchedDoc(1<<20, 1, 2), anyKeyCriterion())
}

func benchMergeToFile(b *testing.B, left, right string, c *keys.Criterion) {
	f, err := os.Create(filepath.Join(b.TempDir(), "merged.xml"))
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	cw := &countingWriter{w: f}
	b.SetBytes(int64(len(left) + len(right)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			b.Fatal(err)
		}
		if _, err := Documents(strings.NewReader(left), strings.NewReader(right), c, cw, Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cw.writes)/float64(b.N), "writes/op")
}
