package merge

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"nexsort/internal/keys"
	"nexsort/internal/xmltree"
)

// countingWriter counts the Write calls and bytes that reach it.
type countingWriter struct {
	w      io.Writer
	writes int
	bytes  int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	n, err := c.w.Write(p)
	c.bytes += int64(n)
	return n, err
}

// deliveryReader counts the bytes it has handed to its consumer.
type deliveryReader struct {
	r         io.Reader
	delivered int64
}

func (d *deliveryReader) Read(p []byte) (int, error) {
	n, err := d.r.Read(p)
	d.delivered += int64(n)
	return n, err
}

// probeWriter records how many bytes the left input had delivered when
// the output first received a byte past the root's start tag.
type probeWriter struct {
	left      *deliveryReader
	rootTag   int64
	written   int64
	leftAtOut int64 // -1 until the first byte past the root tag arrives
}

func (p *probeWriter) Write(b []byte) (int, error) {
	p.written += int64(len(b))
	if p.leftAtOut < 0 && p.written > p.rootTag {
		p.leftAtOut = p.left.delivered
	}
	return len(b), nil
}

// anyKeyCriterion orders every element by its k attribute.
func anyKeyCriterion() *keys.Criterion {
	return &keys.Criterion{Rules: []keys.Rule{{Tag: "", Source: keys.ByAttr("k")}}}
}

// deepMatchedDoc is <r> holding one element <m k="1"> whose descendants
// take about size bytes: sorted <d> children keyed from first in steps of
// step, each with a small <e> subtree.
func deepMatchedDoc(size, first, step int) string {
	var sb strings.Builder
	sb.WriteString(`<r><m k="1">`)
	for k := first; sb.Len() < size; k += step {
		fmt.Fprintf(&sb, `<d k="%08d"><e k="0">payload %d</e></d>`, k, k)
	}
	sb.WriteString(`</m></r>`)
	return sb.String()
}

// TestMergeOutputWriteGranularity: the output reaches the caller's writer
// in blocks, not one Write per tag fragment.
func TestMergeOutputWriteGranularity(t *testing.T) {
	left, right, c := benchDocs()
	cw := &countingWriter{w: io.Discard}
	if _, err := Documents(strings.NewReader(left), strings.NewReader(right), c, cw, Options{}); err != nil {
		t.Fatal(err)
	}
	limit := int((cw.bytes+outputBlockBytes-1)/outputBlockBytes) + 1
	if cw.bytes < 4*outputBlockBytes {
		t.Fatalf("output of %d bytes is too small to exercise blocking", cw.bytes)
	}
	if cw.writes > limit {
		t.Errorf("%d Write calls for %d output bytes; want at most %d", cw.writes, cw.bytes, limit)
	}
}

// TestMergeStreamsMatchedSubtree: a matched pair whose subtrees hold
// nearly the whole document must stream. The merged output starts
// flowing before the left input has been read to its end, so neither
// side's subtree is ever held in memory.
func TestMergeStreamsMatchedSubtree(t *testing.T) {
	left := deepMatchedDoc(1<<20, 0, 2)
	right := deepMatchedDoc(1<<20, 1, 2)
	lr := &deliveryReader{r: strings.NewReader(left)}
	pw := &probeWriter{left: lr, rootTag: int64(len("<r>")), leftAtOut: -1}
	rep, err := Documents(lr, strings.NewReader(right), anyKeyCriterion(), pw, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matched != 2 { // r and m
		t.Errorf("Matched = %d, want 2", rep.Matched)
	}
	if pw.leftAtOut < 0 || pw.leftAtOut >= int64(len(left))/2 {
		t.Errorf("first output past the root tag came after %d of %d left bytes were read; want under half",
			pw.leftAtOut, len(left))
	}
}

// TestMergeGroupShapes pins the duplicate-key group cases against the
// nested-loop oracle: groups whose heads share a tag (streamed pair by
// pair), groups whose heads differ (buffered), uneven duplicate counts on
// either side, and text or empty-key siblings beside a group.
func TestMergeGroupShapes(t *testing.T) {
	cases := []struct {
		name        string
		left, right string
		matched     int64
	}{
		{"same-tag heads",
			`<r><a k="1" x="1"/><a k="1" x="2"/></r>`,
			`<r><a k="1" y="1"/><a k="1" y="2"/></r>`, 3},
		{"mixed-tag heads",
			`<r><a k="1" x="1"/><b k="1" x="2"/></r>`,
			`<r><b k="1" y="1"/><a k="1" y="2"/></r>`, 3},
		{"more left duplicates",
			`<r><a k="1" x="1"/><a k="1" x="2"/></r>`,
			`<r><a k="1" y="1"/></r>`, 2},
		{"more right duplicates",
			`<r><a k="1" x="1"/></r>`,
			`<r><a k="1" y="1"/><a k="1" y="2"/></r>`, 2},
		{"same-tag pair then mixed tags",
			`<r><a k="1" x="1"/><b k="1" x="2"/><a k="1" x="3"/></r>`,
			`<r><a k="1" y="1"/><a k="1" y="2"/><b k="1" y="3"/></r>`, 4},
		{"unmatched tags in a group",
			`<r><a k="1" x="1"/><c k="1" x="2"/></r>`,
			`<r><b k="1" y="1"/><a k="1" y="2"/></r>`, 2},
		{"text and empty keys beside a group",
			`<r>t1<a k="">x</a><a k="1"><c k="2"/></a><b k="2"/></r>`,
			`<r><a k="">y</a>t2<a k="1"><c k="2"/><c k="3"/></a></r>`, 3},
		{"mixed tags inside a matched pair",
			`<r><a k="1"><b k="5" v="1">l</b><c k="5"/></a></r>`,
			`<r><a k="1"><c k="5"/><b k="5" v="2">r</b></a></r>`, 4},
	}
	c := anyKeyCriterion()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, par := range []int{1, 2} {
				var out strings.Builder
				rep, err := Documents(strings.NewReader(tc.left), strings.NewReader(tc.right), c, &out, Options{Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				if rep.Matched != tc.matched {
					t.Errorf("P=%d: Matched = %d, want %d", par, rep.Matched, tc.matched)
				}
				lt, err := xmltree.ParseString(tc.left)
				if err != nil {
					t.Fatal(err)
				}
				rt, err := xmltree.ParseString(tc.right)
				if err != nil {
					t.Fatal(err)
				}
				naive, err := NestedLoop(lt, rt, c, Options{})
				if err != nil {
					t.Fatal(err)
				}
				naive.SortRecursive()
				if out.String() != naive.XMLString() {
					t.Errorf("P=%d: streaming and nested-loop merges disagree:\n stream %s\n  naive %s", par, out.String(), naive.XMLString())
				}
			}
		})
	}
}
