package keypath

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"nexsort/internal/keys"
	"nexsort/internal/xmltok"
)

// d1 is document D1 from Figure 1 of the paper, in its original
// (pre-sorting) element order as shown in the figure.
const d1 = `<company>
  <region name="NE">
    <branch name="Durham" dup="skip"/>
  </region>
  <region name="AC">
    <branch name="Durham">
      <employee ID="454"/>
      <employee ID="323"><name>Smith</name><phone>5552345</phone></employee>
    </branch>
    <branch name="Atlanta"/>
  </region>
</company>`

// d1Criterion matches the paper: regions and branches by name, employees by
// ID, everything else by tag name.
func d1Criterion() *keys.Criterion {
	return &keys.Criterion{Rules: []keys.Rule{
		{Tag: "region", Source: keys.ByAttr("name")},
		{Tag: "branch", Source: keys.ByAttr("name")},
		{Tag: "employee", Source: keys.ByAttr("ID")},
		{Tag: "", Source: keys.ByTag()},
	}}
}

// extractDoc parses and annotates a document and runs it through an
// Extractor, returning all records.
func extractDoc(t *testing.T, doc string, c *keys.Criterion) []Record {
	t.Helper()
	p := xmltok.NewParser(strings.NewReader(doc), xmltok.DefaultParserOptions())
	a := keys.NewAnnotator(c, nil)
	e := NewExtractor()
	var recs []Record
	for {
		tok, err := p.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if tok, err = a.Annotate(tok); err != nil {
			t.Fatal(err)
		}
		rec, ok, err := e.OnToken(tok)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			recs = append(recs, rec)
		}
	}
	if e.Depth() != 0 {
		t.Fatalf("extractor left %d elements open", e.Depth())
	}
	return recs
}

// TestTable1 reproduces the key-path representation of D1 exactly as the
// paper's Table 1 prints it (the table lists the document subset shown in
// its Figure 1 sketch; ours includes every node of d1, sorted).
func TestTable1(t *testing.T) {
	recs := extractDoc(t, d1, d1Criterion())
	sort.Slice(recs, func(i, j int) bool { return recs[i].Compare(recs[j]) < 0 })
	rows := FormatTable(recs)
	want := []Row{
		{"/", "<company>"},
		{"/AC", `<region name="AC">`},
		{"/AC/Atlanta", `<branch name="Atlanta">`},
		{"/AC/Durham", `<branch name="Durham">`},
		{"/AC/Durham/323", `<employee ID="323">`},
		{"/AC/Durham/323/name", "<name>Smith"},
		{"/AC/Durham/323/phone", "<phone>5552345"},
		{"/AC/Durham/454", `<employee ID="454">`},
		{"/NE", `<region name="NE">`},
		{"/NE/Durham", `<branch name="Durham" dup="skip">`},
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d:\n%v", len(rows), len(want), rows)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Errorf("row %d: got %+v, want %+v", i, rows[i], want[i])
		}
	}
}

func TestRecordCompare(t *testing.T) {
	a := Record{Path: []Component{{"", 0}, {"AC", 1}}}
	b := Record{Path: []Component{{"", 0}, {"AC", 1}, {"Durham", 0}}}
	c := Record{Path: []Component{{"", 0}, {"NE", 0}}}
	if a.Compare(b) >= 0 {
		t.Error("parent should sort before child")
	}
	if b.Compare(a) <= 0 {
		t.Error("child should sort after parent")
	}
	if a.Compare(c) >= 0 {
		t.Error("AC should sort before NE")
	}
	if a.Compare(a) != 0 {
		t.Error("record should equal itself")
	}
	// Same key, different seq.
	d := Record{Path: []Component{{"", 0}, {"AC", 2}}}
	if a.Compare(d) >= 0 {
		t.Error("lower seq should sort first")
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	recs := extractDoc(t, d1, d1Criterion())
	var buf []byte
	for _, r := range recs {
		buf = AppendRecord(buf, r)
	}
	reader := bytes.NewReader(buf)
	var got []Record
	for {
		r, err := ReadRecord(reader)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, r)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("round trip mismatch:\n got %v\nwant %v", got, recs)
	}
}

// deepStream encodes the preorder record stream of a complete tree of the
// given depth and fan-out — sorted, as the sorter emits it — with start
// tags for interior nodes and text for leaves.
func deepStream(depth, fanout int) ([]Record, []byte) {
	var recs []Record
	var walk func(path []Component)
	walk = func(path []Component) {
		rec := Record{Path: append([]Component(nil), path...)}
		if len(path) == depth {
			rec.Tok = xmltok.Token{Kind: xmltok.KindText, Text: "leaf"}
			recs = append(recs, rec)
			return
		}
		rec.Tok = xmltok.Token{Kind: xmltok.KindStart, Name: "e"}
		recs = append(recs, rec)
		for i := 0; i < fanout; i++ {
			walk(append(path, Component{Key: fmt.Sprintf("k%d", i), Seq: int64(i)}))
		}
	}
	walk([]Component{{Key: "", Seq: 0}})
	var buf []byte
	for _, r := range recs {
		buf = AppendRecord(buf, r)
	}
	return recs, buf
}

// TestDecoderStreamRoundTrip decodes a sorted stream with one Decoder,
// whose Path slice and Key strings are reused across records, and checks
// every record against the encoded one.
func TestDecoderStreamRoundTrip(t *testing.T) {
	recs, buf := deepStream(8, 3)
	reader := bytes.NewReader(buf)
	var d Decoder
	for i := 0; ; i++ {
		r, err := d.ReadRecord(reader)
		if err == io.EOF {
			if i != len(recs) {
				t.Fatalf("decoded %d records, want %d", i, len(recs))
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r, recs[i]) {
			t.Fatalf("record %d: got %v, want %v", i, r, recs[i])
		}
	}
}

// TestDecoderAllocs bounds decode allocations on a sorted depth-8 stream:
// at most two per record — one for the token's string and at most one for
// the path, since each record shares its ancestors' keys with the record
// before it.
func TestDecoderAllocs(t *testing.T) {
	recs, buf := deepStream(8, 3)
	reader := bytes.NewReader(buf)
	var d Decoder
	allocs := testing.AllocsPerRun(5, func() {
		reader.Reset(buf)
		for {
			if _, err := d.ReadRecord(reader); err != nil {
				if err != io.EOF {
					t.Fatal(err)
				}
				return
			}
		}
	})
	if perRec := allocs / float64(len(recs)); perRec > 2 {
		t.Errorf("decoding allocates %.2f per record, want ≤ 2", perRec)
	}
}

func TestCompareEncodedMatchesDecoded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() Record {
			n := 1 + rng.Intn(4)
			r := Record{Tok: xmltok.Token{Kind: xmltok.KindText, Text: "x"}}
			for i := 0; i < n; i++ {
				r.Path = append(r.Path, Component{
					Key: string(rune('a' + rng.Intn(3))),
					Seq: int64(rng.Intn(3)),
				})
			}
			return r
		}
		a, b := mk(), mk()
		ea := AppendRecord(nil, a)
		eb := AppendRecord(nil, b)
		return sign(CompareEncoded(ea, eb)) == sign(a.Compare(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func sign(v int) int {
	switch {
	case v < 0:
		return -1
	case v > 0:
		return 1
	default:
		return 0
	}
}

func TestExtractorRequiresStartKeys(t *testing.T) {
	e := NewExtractor()
	_, _, err := e.OnToken(xmltok.Token{Kind: xmltok.KindStart, Name: "a"})
	if err == nil || !strings.Contains(err.Error(), "no key") {
		t.Errorf("keyless start: %v", err)
	}
	if _, _, err := e.OnToken(xmltok.Token{Kind: xmltok.KindEnd, Name: "x"}); err == nil {
		t.Error("end without open element should fail")
	}
}

// TestExtractBuildRoundTrip: extracting records, sorting them, and
// rebuilding must equal tokenizing the recursively sorted document.
func TestExtractBuildRoundTrip(t *testing.T) {
	crit := d1Criterion()
	recs := extractDoc(t, d1, crit)
	sort.Slice(recs, func(i, j int) bool { return recs[i].Compare(recs[j]) < 0 })

	var sb strings.Builder
	w := xmltok.NewWriter(&sb)
	b := NewBuilder(func(tok xmltok.Token) error {
		tok.HasKey, tok.Key = false, ""
		return w.WriteToken(tok)
	})
	for _, r := range recs {
		if err := b.OnRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	want := `<company><region name="AC"><branch name="Atlanta"></branch><branch name="Durham"><employee ID="323"><name>Smith</name><phone>5552345</phone></employee><employee ID="454"></employee></branch></region><region name="NE"><branch name="Durham" dup="skip"></branch></region></company>`
	if sb.String() != want {
		t.Errorf("rebuilt document:\n got %s\nwant %s", sb.String(), want)
	}
}

func TestBuilderOutOfOrder(t *testing.T) {
	b := NewBuilder(func(xmltok.Token) error { return nil })
	// A child record arriving before its parent is open must fail.
	err := b.OnRecord(Record{
		Path: []Component{{"", 0}, {"x", 0}},
		Tok:  xmltok.Token{Kind: xmltok.KindStart, Name: "child"},
	})
	if err == nil {
		t.Error("orphan record should fail")
	}
	if err := b.OnRecord(Record{}); err == nil {
		t.Error("empty path should fail")
	}
}

func TestPathString(t *testing.T) {
	root := Record{Path: []Component{{"", 0}}}
	if got := root.PathString(); got != "/" {
		t.Errorf("root path = %q", got)
	}
	deep := Record{Path: []Component{{"", 0}, {"AC", 1}, {"Durham", 0}, {"323", 1}}}
	if got := deep.PathString(); got != "/AC/Durham/323" {
		t.Errorf("deep path = %q", got)
	}
}
