package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"nexsort"
)

// blockSize is B for every workload: the paper's 64 KiB.
const blockSize = 64 << 10

// criterionSpec orders every element by its key attribute.
const criterionSpec = "*=@key"

// workload is one named input set: a document shape, its size, the
// memory M the sorters get, and how the merge partner is built.
type workload struct {
	name string
	// shape is "ibm" (random tree, fan-out uniform in [1, maxFanout],
	// height levels, cut off at elements) or "flat" (one root with
	// elements-1 children).
	shape     string
	height    int
	maxFanout int
	elements  int64
	memBytes  int64
	// partner, when true, merges the sorted document with a second,
	// presorted document of the same shape whose keys overlap it;
	// otherwise the sorted document is merged with itself.
	partner bool
}

// workloads are the benchmark's inputs. They are smaller than the
// paper-scale documents (about 250k elements, 35 MB) so that one run
// holds enough rounds for steady medians on a small, shared host. flat
// keeps M = 1 MiB and is just large enough (16 initial runs against a
// fan-in of 13) that merge sort needs two merge passes. There is no
// separate deep-tree sort workload: merge sorts its left document, an
// IBM-shaped deep tree, with all three algorithms every round, so it
// measures the in-memory subtree sorts and the long key paths as well.
var workloads = []workload{
	// One huge child list, many times M: NEXSORT's only subtree sort is
	// the external key-path fallback with data-stack paging, and merge
	// sort needs more than one merge pass.
	{name: "flat", shape: "flat", elements: 80000, memBytes: 1 << 20},
	// The paper's motivating application (Example 1.1): a structural
	// merge of two presorted deep documents whose keys overlap, with two
	// token streams alive at once and no spill or budget. The sorts of
	// its left document are hierarchy, NEXSORT's home ground: every
	// subtree sort fits in memory, so time goes to the CPU in xmltok,
	// keys, xmltree and core, while merge sort carries its longest key
	// paths.
	{name: "merge", shape: "ibm", height: 10, maxFanout: 8, elements: 20000, memBytes: 2 << 20, partner: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) describe() string {
	shape := fmt.Sprintf("ibm height %d max fan-out %d", w.height, w.maxFanout)
	if w.shape == "flat" {
		shape = "flat (one root)"
	}
	partner := "merged with itself"
	if w.partner {
		partner = "merged with a presorted partner whose leaf keys overlap"
	}
	return fmt.Sprintf("%s, %d elements, B=%d, M=%d, criterion %s, %s",
		shape, w.elements, blockSize, w.memBytes, criterionSpec, partner)
}

// config is the sorters' Config: the defaults apart from M, with scratch
// kept inside the run's own directory.
func (w workload) config(scratch string) nexsort.Config {
	cfg := nexsort.DefaultConfig()
	cfg.BlockSize = blockSize
	cfg.MemoryBytes = w.memBytes
	cfg.ScratchDir = scratch
	return cfg
}

// prepared is a workload set up on disk.
type prepared struct {
	w    workload
	dir  string
	crit *nexsort.Criterion

	input      string // the unsorted document every sort reads
	inputBytes int64
	elements   int64
	maxFanout  int

	// partnerSorted is the presorted merge partner ("" merges the sorted
	// input with itself); expMatched and expMergeOut are the merge report
	// figures the construction dictates.
	partnerSorted string
	expMatched    int64
	expMergeOut   int64
}

func (p *prepared) path(name string) string { return filepath.Join(p.dir, name) }

func (p *prepared) remove() { os.RemoveAll(p.dir) }

// setupRuns is how many times a run sets up its workload; setup_s is the
// median.
const setupRuns = 15

// setupRepeated prepares the workload setupRuns times, keeps the last
// copy, and returns the time each took and the reference pass run just
// before each (see speed.go).
func setupRepeated(w workload, seed int64, root string, k *refKernel) (*prepared, []float64, []float64, error) {
	var times, passes []float64
	var prep *prepared
	for i := 0; i < setupRuns; i++ {
		if prep != nil {
			prep.remove()
		}
		dir := filepath.Join(root, "work", fmt.Sprintf("%s-%d-%d-%d", w.name, seed, os.Getpid(), i))
		passes = append(passes, k.run())
		start := time.Now()
		p, err := setup(w, seed, dir)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if prep != nil && (p.inputBytes != prep.inputBytes || p.expMergeOut != prep.expMergeOut) {
			p.remove()
			return nil, nil, nil, fmt.Errorf("setup: seed %d generated different documents on repeat", seed)
		}
		prep = p
	}
	fmt.Printf("setup: %d elements, %d input bytes, setups %v s\n", prep.elements, prep.inputBytes, times)
	return prep, times, passes, nil
}

// setup generates the workload's documents, presorts the merge partner,
// and reads every input once so that the measured operations are served
// from the page cache.
func setup(w workload, seed int64, dir string) (*prepared, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	crit, err := nexsort.ParseCriterion(criterionSpec)
	if err != nil {
		return nil, err
	}
	p := &prepared{w: w, dir: dir, crit: crit, input: filepath.Join(dir, "input.xml")}
	partner := ""
	if w.partner {
		partner = filepath.Join(dir, "partner.xml")
	}
	st, err := generate(w, seed, p.input, partner)
	if err != nil {
		return nil, err
	}
	p.inputBytes, p.elements, p.maxFanout = st.bytes, st.elements, st.maxFanout
	p.expMatched, p.expMergeOut = st.elements, st.elements // a self-merge matches everything
	if w.partner {
		p.partnerSorted = filepath.Join(dir, "partner.sorted.xml")
		_, err := nexsort.SortFile(partner, p.partnerSorted, w.config(dir), nexsort.Options{Criterion: crit})
		if err != nil {
			return nil, fmt.Errorf("presorting the merge partner: %w", err)
		}
		if err := os.Remove(partner); err != nil {
			return nil, err
		}
		p.expMatched, p.expMergeOut = st.matched, st.mergeOut
	}
	for _, f := range []string{p.input, p.partnerSorted} {
		if f == "" {
			continue
		}
		if err := readAll(f); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func readAll(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = io.Copy(io.Discard, f)
	return err
}

// genStats describes a generated document pair.
type genStats struct {
	elements  int64
	bytes     int64
	maxFanout int
	// matched and mergeOut are what merging the sorted document with its
	// sorted partner must report: Matched and OutputElements.
	matched  int64
	mergeOut int64
}

// docGen writes a document, and optionally its merge partner, in one
// depth-first walk. Elements look like the paper's generator's: about 150
// bytes, an 8-digit random key and a filler attribute. Sibling keys are
// distinct across both documents, so matching is one-to-one by key: the
// partner has the same tree, and each leaf keeps its key (the pair
// matches) or, with probability 1/4, gets a fresh one (both leaves copy
// through one-sided).
type docGen struct {
	w       workload
	rng     *rand.Rand
	doc     *bufio.Writer
	partner *bufio.Writer // nil without a partner
	buf     []byte
	st      genStats
}

// filler pads each element to about 150 bytes.
var filler = strings.Repeat("x", 110)

func generate(w workload, seed int64, docPath, partnerPath string) (genStats, error) {
	g := &docGen{w: w, rng: rand.New(rand.NewSource(seed))}
	df, err := os.Create(docPath)
	if err != nil {
		return genStats{}, err
	}
	defer df.Close()
	g.doc = bufio.NewWriterSize(df, 1<<16)
	var pf *os.File
	if partnerPath != "" {
		if pf, err = os.Create(partnerPath); err != nil {
			return genStats{}, err
		}
		defer pf.Close()
		g.partner = bufio.NewWriterSize(pf, 1<<16)
	}

	rootKey := g.key()
	switch w.shape {
	case "flat":
		g.flat(rootKey)
	default:
		g.ibm(1, rootKey, rootKey)
	}
	if err := g.doc.Flush(); err != nil {
		return genStats{}, err
	}
	if err := df.Close(); err != nil {
		return genStats{}, err
	}
	if g.partner != nil {
		if err := g.partner.Flush(); err != nil {
			return genStats{}, err
		}
		if err := pf.Close(); err != nil {
			return genStats{}, err
		}
	}
	fi, err := os.Stat(docPath)
	if err != nil {
		return genStats{}, err
	}
	g.st.bytes = fi.Size()
	return g.st, nil
}

func (g *docGen) key() int { return g.rng.Intn(100000000) }

// freshKey draws a key no sibling on either side has used yet.
func (g *docGen) freshKey(used map[int]bool) int {
	for {
		if k := g.key(); !used[k] {
			used[k] = true
			return k
		}
	}
}

// element writes one childless element, or the start tag of one with
// children when open is true.
func (g *docGen) element(dst *bufio.Writer, level, key int, open bool) {
	b := append(g.buf[:0], "<n"...)
	b = strconv.AppendInt(b, int64(level), 10)
	b = append(b, ` key="`...)
	ks := strconv.Itoa(key)
	for i := len(ks); i < 8; i++ {
		b = append(b, '0')
	}
	b = append(b, ks...)
	b = append(b, `" pad="`...)
	b = append(b, filler...)
	b = append(b, `">`...)
	if !open {
		b = g.endTag(b, level)
	}
	g.buf = b
	dst.Write(b) // bufio.Writer errors are sticky and reported by Flush
}

func (g *docGen) endTag(b []byte, level int) []byte {
	b = append(b, "</n"...)
	b = strconv.AppendInt(b, int64(level), 10)
	return append(b, '>')
}

func (g *docGen) close(dst *bufio.Writer, level int) {
	g.buf = g.endTag(g.buf[:0], level)
	dst.Write(g.buf)
}

// ibm writes one element and its random subtree, stopping at the
// workload's element count.
func (g *docGen) ibm(level, key, partnerKey int) {
	g.st.elements++
	if partnerKey == key {
		g.st.matched++
		g.st.mergeOut++
	} else {
		g.st.mergeOut += 2
	}
	if level == g.w.height || g.st.elements >= g.w.elements {
		g.element(g.doc, level, key, false)
		if g.partner != nil {
			g.element(g.partner, level, partnerKey, false)
		}
		return
	}
	g.element(g.doc, level, key, true)
	if g.partner != nil {
		g.element(g.partner, level, partnerKey, true)
	}
	fan := 1 + g.rng.Intn(g.w.maxFanout)
	if fan > g.st.maxFanout {
		g.st.maxFanout = fan
	}
	used := make(map[int]bool, 2*fan)
	for i := 0; i < fan && g.st.elements < g.w.elements; i++ {
		k := g.freshKey(used)
		pk := k
		if g.partner != nil && level+1 == g.w.height && g.rng.Intn(4) == 0 {
			pk = g.freshKey(used)
		}
		g.ibm(level+1, k, pk)
	}
	g.close(g.doc, level)
	if g.partner != nil {
		g.close(g.partner, level)
	}
}

// flat writes a root with elements-1 leaf children.
func (g *docGen) flat(rootKey int) {
	g.element(g.doc, 1, rootKey, true)
	children := int(g.w.elements - 1)
	used := make(map[int]bool, children)
	for i := 0; i < children; i++ {
		g.element(g.doc, 2, g.freshKey(used), false)
	}
	g.close(g.doc, 1)
	g.st.elements = g.w.elements
	g.st.matched, g.st.mergeOut = g.w.elements, g.w.elements
	g.st.maxFanout = children
}
