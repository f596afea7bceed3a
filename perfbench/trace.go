package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nexsort/internal/core"
	"nexsort/internal/em"
	"nexsort/internal/extsort"
	"nexsort/internal/merge"
	"nexsort/internal/theory"
	"nexsort/internal/xmltok"
	"nexsort/internal/xmltree"
)

// span is one timed call at a layer boundary. Spans of one operation
// share Op; Parent is 0 for an operation's root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. The benchmark is a
// closed loop, so one operation is open at a time: a span's parent is
// whatever span is innermost when it starts, including for device calls
// made on the sorters' worker goroutines.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int // indexes into spans, innermost last
	op    int64

	// Phase spans of the innermost phased layer call: start → input EOF
	// (until_eof), EOF → first output write (middle), first write → end
	// (emit). Seen from outside, the boundaries are approximate: the
	// input reader returns EOF only after the layer's own buffering.
	phased string
	phase  int // index into phaseNames; -1 when no phased call is open
}

var phaseNames = []string{"until_eof", "middle", "emit"}

func newTracer() *tracer { return &tracer{t0: time.Now(), phase: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) pushLocked(name string, start int64) {
	var parent int64
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Op: t.op, Name: name, Start: start})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) popLocked(end int64) *span {
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = end
	return &t.spans[i]
}

// beginOp opens an operation's root span under a new operation id.
func (t *tracer) beginOp(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.op++
	t.pushLocked(name, t.now())
}

// begin opens a child span of the innermost open span.
func (t *tracer) begin(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pushLocked(name, t.now())
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.popLocked(t.now())
	return float64(s.End-s.Start) / 1e9
}

// leaf records a finished call as a child of the innermost open span.
func (t *tracer) leaf(name string, start time.Time, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := int64(start.Sub(t.t0))
	var parent int64
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Op: t.op, Name: name, Start: s, End: s + int64(d)})
}

// beginPhased opens a layer call whose phases are tracked.
func (t *tracer) beginPhased(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	t.pushLocked(name, now)
	t.phased, t.phase = name, 0
	t.pushLocked(name+"."+phaseNames[0], now)
}

// advance moves the open phased call forward to phase to; phases never
// move backwards.
func (t *tracer) advance(to int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.phase < 0 || t.phase >= to {
		return
	}
	now := t.now()
	t.popLocked(now)
	t.phase = to
	t.pushLocked(t.phased+"."+phaseNames[to], now)
}

func (t *tracer) inputEOF()   { t.advance(1) }
func (t *tracer) firstWrite() { t.advance(2) }

// endPhased closes the phased call and returns each phase's duration.
func (t *tracer) endPhased() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	t.popLocked(now)
	t.popLocked(now)
	name := t.phased
	t.phase, t.phased = -1, ""
	out := map[string]float64{}
	for i := len(t.spans) - 1; i >= 0 && t.spans[i].Name != name; i-- {
		for _, ph := range phaseNames {
			if t.spans[i].Name == name+"."+ph {
				out[ph] += float64(t.spans[i].End-t.spans[i].Start) / 1e9
			}
		}
	}
	return out
}

// selfTimes aggregates spans by name: count, total time, and self time —
// a span's duration minus the part of it that its children cover.
func (t *tracer) selfTimes() []spanSummary {
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*spanSummary{}
	for _, s := range t.spans {
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
		}
		d := s.End - s.Start
		sum.Count++
		sum.TotalS += float64(d) / 1e9
		sum.SelfS += float64(d-covered(s, children[s.ID])) / 1e9
	}
	out := make([]spanSummary, 0, len(byName))
	for _, s := range byName {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfS > out[j].SelfS })
	return out
}

// covered returns how much of parent's interval the union of its
// children's intervals covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64
	curS, curE = -1, -1
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

type spanSummary struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// writeSpans writes the span file and prints its summary.
func (t *tracer) writeSpans(path string, header map[string]any) error {
	sum := t.selfTimes()
	fmt.Printf("%-36s %8s %10s %10s\n", "span", "count", "total_s", "self_s")
	for _, s := range sum {
		fmt.Printf("%-36s %8d %10.4f %10.4f\n", s.Name, s.Count, s.TotalS, s.SelfS)
	}
	header["summary"] = sum
	header["spans"] = t.spans
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(header); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("span file: %s (%d spans)\n", path, len(t.spans))
	return nil
}

// ioCounters tally the calls crossing the input/output boundary.
type ioCounters struct {
	reads, readNs, writes, writeNs atomic.Int64
}

// timedReader times every Read on an input and records it as a span.
// Merge reads its two inputs on producer goroutines, hence the atomics.
type timedReader struct {
	r  io.Reader
	tr *tracer
	c  *ioCounters
}

func (t *timedReader) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := t.r.Read(p)
	d := time.Since(start)
	t.c.reads.Add(1)
	t.c.readNs.Add(int64(d))
	t.tr.leaf("io.read", start, d)
	if err == io.EOF {
		t.tr.inputEOF()
	}
	return n, err
}

// timedWriter times every Write on an output. Writes are counted, not
// recorded as spans: merge makes about 16 per element.
type timedWriter struct {
	w     io.Writer
	tr    *tracer
	c     *ioCounters
	wrote bool
}

func (t *timedWriter) Write(p []byte) (int, error) {
	if !t.wrote {
		t.wrote = true
		t.tr.firstWrite()
	}
	start := time.Now()
	n, err := t.w.Write(p)
	t.c.writes.Add(1)
	t.c.writeNs.Add(int64(time.Since(start)))
	return n, err
}

// timingBackend sits on the raw scratch device, under the hardening
// layers, and times every block transfer that reaches it.
type timingBackend struct {
	inner              em.Backend
	tr                 *tracer
	reads, writes      atomic.Int64
	readBytes, wrBytes atomic.Int64
	readNs, writeNs    atomic.Int64
}

func (b *timingBackend) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := b.inner.ReadAt(p, off)
	d := time.Since(start)
	b.reads.Add(1)
	b.readBytes.Add(int64(n))
	b.readNs.Add(int64(d))
	b.tr.leaf("em.dev.read", start, d)
	return n, err
}

func (b *timingBackend) WriteAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := b.inner.WriteAt(p, off)
	d := time.Since(start)
	b.writes.Add(1)
	b.wrBytes.Add(int64(n))
	b.writeNs.Add(int64(d))
	b.tr.leaf("em.dev.write", start, d)
	return n, err
}

func (b *timingBackend) Close() error { return b.inner.Close() }

// tracedOp holds what one traced operation needs: its environment, its
// timed input and output, and the files behind them.
type tracedOp struct {
	tr      *tracer
	io      *ioCounters
	backend *timingBackend
	env     *em.Env
	in      *os.File
	out     *os.File
	outPath string
	r       io.Reader
	w       io.Writer
}

// openTraced builds the environment nexsort's public API would build for
// the workload — default config apart from M — with the timing backend
// installed through em.Config.WrapBackend.
func openTraced(tr *tracer, p *prepared, name, input string) (*tracedOp, error) {
	op := &tracedOp{tr: tr, io: &ioCounters{}, outPath: p.path(name + ".out.xml")}
	cfg := em.Config{
		BlockSize:  blockSize,
		MemBlocks:  int(p.w.memBytes / blockSize),
		ScratchDir: p.dir,
		WrapBackend: func(b em.Backend) em.Backend {
			op.backend = &timingBackend{inner: b, tr: tr}
			return op.backend
		},
	}
	env, err := em.NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	op.env = env
	if op.in, err = os.Open(input); err != nil {
		env.Close()
		return nil, err
	}
	if op.out, err = createFresh(op.outPath); err != nil {
		op.in.Close()
		env.Close()
		return nil, err
	}
	op.r = &timedReader{r: op.in, tr: tr, c: op.io}
	op.w = &timedWriter{w: op.out, tr: tr, c: op.io}
	return op, nil
}

// close releases the operation's files and environment; the output file's
// close error is the one that matters.
func (op *tracedOp) close() error {
	op.in.Close()
	err := op.out.Close()
	if cerr := op.env.Close(); err == nil {
		err = cerr
	}
	return err
}

// layerRound accumulates one traced round's per-layer metrics.
type layerRound struct {
	m    map[string]float64
	wall float64 // the four operations' wall time
}

var emCategories = []string{"input", "subtree-sort", "data-stack", "path-stack", "run-read", "output-stack", "output", "merge-run"}

// addEnv folds an operation's device, ledger, budget and I/O-boundary
// figures into the round.
func (lr *layerRound) addEnv(op *tracedOp) {
	m := lr.m
	if b := op.backend; b != nil {
		m["em.dev_reads"] += float64(b.reads.Load())
		m["em.dev_writes"] += float64(b.writes.Load())
		m["em.dev_read_mb"] += float64(b.readBytes.Load()) / mb
		m["em.dev_write_mb"] += float64(b.wrBytes.Load()) / mb
		m["em.dev_read_s"] += float64(b.readNs.Load()) / 1e9
		m["em.dev_write_s"] += float64(b.writeNs.Load()) / 1e9
	}
	snap := op.env.Stats.Snapshot()
	for _, c := range emCategories {
		m["em.ios."+c] += float64(snap[c].Total())
	}
	m["em.budget_peak_blocks"] = max(m["em.budget_peak_blocks"], float64(op.env.Budget.Peak()))
	m["em.frames_peak"] = max(m["em.frames_peak"], float64(op.env.Dev.Frames().PeakLive()))
	m["em.retries"] += float64(op.env.Stats.TotalRetries())
	m["em.checksum_failures"] += float64(op.env.Stats.TotalChecksumFailures())
	lr.addIO(op.io)
}

func (lr *layerRound) addIO(c *ioCounters) {
	lr.m["io.input_reads"] += float64(c.reads.Load())
	lr.m["io.input_read_s"] += float64(c.readNs.Load()) / 1e9
	lr.m["io.output_writes"] += float64(c.writes.Load())
	lr.m["io.output_write_s"] += float64(c.writeNs.Load()) / 1e9
}

// tracedRound drives one round's work through the layers' own entry
// points and checks every output with the same gate as the untraced
// rounds.
func tracedRound(tr *tracer, p *prepared, g *gate) (*layerRound, error) {
	lr := &layerRound{m: map[string]float64{}}
	steps := []func(*tracer, *prepared, *gate, *layerRound) error{
		tracedNexsort, tracedMergeSort, tracedInMemory, tracedMerge,
	}
	for _, step := range steps {
		if err := step(tr, p, g, lr); err != nil {
			return nil, err
		}
	}
	if err := tracedTokenizer(tr, p, lr); err != nil {
		return nil, err
	}
	return lr, nil
}

func tracedNexsort(tr *tracer, p *prepared, g *gate, lr *layerRound) error {
	op, err := openTraced(tr, p, "nexsort", p.input)
	if err != nil {
		return err
	}
	start := time.Now()
	tr.beginOp("op.nexsort")
	tr.beginPhased("core.Sort")
	rep, err := core.Sort(op.env, op.r, op.w, core.Options{Criterion: p.crit})
	ph := tr.endPhased()
	tr.end()
	lr.wall += time.Since(start).Seconds()
	if cerr := op.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("nexsort (traced): %w", err)
	}
	lr.addEnv(op)
	m := lr.m
	m["core.until_eof_s"] = ph["until_eof"]
	m["core.emit_s"] = ph["emit"]
	m["core.subtree_sorts"] = float64(rep.SubtreeSorts)
	m["core.external_sorts"] = float64(rep.ExternalSorts)
	m["core.run_blocks"] = float64(rep.RunBlocks)
	m["core.scratch_blocks"] = float64(rep.ScratchBlocks)
	// The paper's bound in its own units: elements, elements per block,
	// memory blocks and maximum fan-out.
	perBlock := max(1, int64(float64(blockSize)*float64(p.elements)/float64(p.inputBytes)))
	bound := theory.AsymptoticLowerBound(p.elements, perBlock, p.w.memBytes/blockSize, int64(p.maxFanout))
	m["core.bound_ratio"] = float64(rep.TotalIOs()) / bound
	return g.checkSort("nexsort", op.outPath, rep.TotalIOs())
}

func tracedMergeSort(tr *tracer, p *prepared, g *gate, lr *layerRound) error {
	op, err := openTraced(tr, p, "mergesort", p.input)
	if err != nil {
		return err
	}
	start := time.Now()
	tr.beginOp("op.mergesort")
	tr.beginPhased("extsort.SortXML")
	rep, err := extsort.SortXML(op.env, p.crit, op.r, op.w, extsort.XMLOptions{})
	ph := tr.endPhased()
	tr.end()
	lr.wall += time.Since(start).Seconds()
	ios := op.env.Stats.TotalIOs()
	if cerr := op.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("mergesort (traced): %w", err)
	}
	lr.addEnv(op)
	m := lr.m
	m["extsort.until_eof_s"] = ph["until_eof"]
	m["extsort.middle_s"] = ph["middle"]
	m["extsort.emit_s"] = ph["emit"]
	m["extsort.initial_runs"] = float64(rep.InitialRuns)
	m["extsort.merge_passes"] = float64(rep.MergePasses)
	m["extsort.record_amp"] = float64(rep.RecordBytes) / float64(rep.InputBytes)
	return g.checkSort("mergesort", op.outPath, ios)
}

// tracedInMemory is the in-memory sort as the public API composes it:
// counted input, xmltree parse, keys, sort, and write through a counted
// output.
func tracedInMemory(tr *tracer, p *prepared, g *gate, lr *layerRound) error {
	op, err := openTraced(tr, p, "inmemory", p.input)
	if err != nil {
		return err
	}
	start := time.Now()
	tr.beginOp("op.inmemory")
	err = func() error {
		cr := em.NewCountingReader(op.r, op.env.Dev, em.CatInput)
		defer cr.Close()
		tr.begin("xmltree.Parse")
		tree, err := xmltree.Parse(cr)
		cr.Finish()
		lr.m["xmltree.parse_s"] = tr.end()
		if err != nil {
			return err
		}
		tr.begin("xmltree.ComputeKeys")
		tree.ComputeKeys(p.crit)
		lr.m["xmltree.keys_s"] = tr.end()
		tr.begin("xmltree.SortToDepth")
		tree.SortToDepth(0)
		lr.m["xmltree.sort_s"] = tr.end()

		tr.begin("xmltree.WriteXML")
		defer func() { lr.m["xmltree.write_s"] = tr.end() }()
		cw := em.NewCountingWriter(op.w, op.env.Dev, em.CatOutput)
		defer cw.Close()
		xw := xmltok.NewWriter(cw)
		if err := tree.WriteXML(xw); err != nil {
			return err
		}
		if err := xw.Close(); err != nil {
			return err
		}
		return cw.Flush()
	}()
	tr.end()
	lr.wall += time.Since(start).Seconds()
	ios := op.env.Stats.TotalIOs()
	if cerr := op.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("inmemory (traced): %w", err)
	}
	lr.addEnv(op)
	return g.checkSort("inmemory", op.outPath, ios)
}

func tracedMerge(tr *tracer, p *prepared, g *gate, lr *layerRound) error {
	left := p.path("nexsort.out.xml")
	right := p.partnerSorted
	if right == "" {
		right = left
	}
	c := &ioCounters{}
	files := make([]*os.File, 0, 3)
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	var readers []io.Reader
	for _, path := range []string{left, right} {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		files = append(files, f)
		readers = append(readers, &timedReader{r: f, tr: tr, c: c})
	}
	outPath := p.path("merge.out.xml")
	out, err := createFresh(outPath)
	if err != nil {
		return err
	}
	start := time.Now()
	tr.beginOp("op.merge")
	tr.begin("merge.Documents")
	rep, err := merge.Documents(readers[0], readers[1], p.crit, &timedWriter{w: out, tr: tr, c: c}, merge.Options{})
	tr.end()
	tr.end()
	lr.wall += time.Since(start).Seconds()
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("merge (traced): %w", err)
	}
	outBytes, err := fileSize(outPath)
	if err != nil {
		return err
	}
	lr.addIO(c)
	m := lr.m
	m["merge.matched"] = float64(rep.Matched)
	m["merge.output_elements"] = float64(rep.OutputElements)
	m["merge.output_writes_per_mb"] = float64(c.writes.Load()) / (float64(outBytes) / mb)
	m["merge.output_write_s"] = float64(c.writeNs.Load()) / 1e9
	return g.checkMerge(outPath, rep)
}

// tracedTokenizer times the tokenizer alone (a pass of Parser.Next over
// the input) and then parse plus Writer.WriteToken into a block-buffered
// output; the writer's time is the difference. These passes are not part
// of a round's four operations and are left out of its wall time.
func tracedTokenizer(tr *tracer, p *prepared, lr *layerRound) error {
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	pass := func(name string, write bool) (secs float64, tokens, allocsN uint64, err error) {
		in, err := os.Open(p.input)
		if err != nil {
			return 0, 0, 0, err
		}
		defer in.Close()
		c := &ioCounters{}
		var out *os.File
		var bw *bufio.Writer
		var xw *xmltok.Writer
		if write {
			if out, err = createFresh(p.path("xmltok.out.xml")); err != nil {
				return 0, 0, 0, err
			}
			defer out.Close()
			bw = bufio.NewWriterSize(&timedWriter{w: out, tr: tr, c: c}, blockSize)
			xw = xmltok.NewWriter(bw)
		}
		metrics.Read(allocs)
		before := allocs[0].Value.Uint64()
		tr.beginOp("op.xmltok")
		tr.begin(name)
		parser := xmltok.NewParser(bufio.NewReaderSize(&timedReader{r: in, tr: tr, c: c}, blockSize), xmltok.DefaultParserOptions())
		for {
			tok, err2 := parser.Next()
			if err2 == io.EOF {
				break
			}
			if err2 != nil {
				err = err2
				break
			}
			tokens++
			if write {
				if err = xw.WriteToken(tok); err != nil {
					break
				}
			}
		}
		if write && err == nil {
			if err = xw.Close(); err == nil {
				err = bw.Flush()
			}
		}
		secs = tr.end()
		tr.end()
		metrics.Read(allocs)
		return secs, tokens, allocs[0].Value.Uint64() - before, err
	}
	parseS, tokens, allocsN, err := pass("xmltok.Parser.Next", false)
	if err != nil {
		return fmt.Errorf("tokenizer pass: %w", err)
	}
	bothS, _, _, err := pass("xmltok.Parser.Next+Writer.WriteToken", true)
	if err != nil {
		return fmt.Errorf("tokenizer+writer pass: %w", err)
	}
	lr.m["xmltok.tokenize_mb_s"] = float64(p.inputBytes) / mb / parseS
	lr.m["xmltok.tokenize_allocs_per_token"] = float64(allocsN) / float64(max(tokens, 1))
	lr.m["xmltok.write_s"] = bothS - parseS
	return nil
}

// runTraced alternates untraced rounds (public API, as in the end-to-end
// run) with traced rounds. Per-layer metrics are medians over the traced
// rounds; process metrics come from the untraced rounds; the tracing
// overhead is the median traced round's wall time minus the median
// untraced round's.
func runTraced(cfg runConfig, p *prepared, k *refKernel) (*result, error) {
	g := newGate(p)
	tr := newTracer()
	res := &result{Metrics: map[string]metric{}}
	var layer []*layerRound
	var plainWalls []float64
	var procs []map[string]float64
	rounds := loop(cfg.seconds, 2, func(i int) {
		res.Attempted += len(opNames)
		if i%2 == 0 {
			rr := runRound(p, g, k)
			res.Failed += rr.failed
			if rr.failed == 0 {
				plainWalls = append(plainWalls, rr.wall)
				procs = append(procs, procMetricsOf(rr))
			}
			return
		}
		lr, err := tracedRound(tr, p, g)
		if err != nil {
			res.Failed++
			fmt.Fprintln(os.Stderr, "FAILED:", err)
			return
		}
		layer = append(layer, lr)
	})
	fmt.Printf("rounds: %d (%d traced), operations attempted %d, failed %d\n",
		rounds, len(layer), res.Attempted, res.Failed)
	res.Correct = res.Failed == 0
	if len(layer) == 0 || len(plainWalls) == 0 {
		return res, nil
	}

	for _, lm := range layerMetrics {
		var vals []float64
		for _, lr := range layer {
			vals = append(vals, lr.m[lm.name])
		}
		res.Metrics[lm.name] = metric{median(vals), lm.unit}
	}
	for _, pm := range procMetricUnits {
		var vals []float64
		for _, m := range procs {
			vals = append(vals, m[pm.name])
		}
		res.Metrics[pm.name] = metric{median(vals), pm.unit}
	}
	var tracedWalls []float64
	for _, lr := range layer {
		tracedWalls = append(tracedWalls, lr.wall)
	}
	overhead := median(tracedWalls) - median(plainWalls)
	res.Metrics["trace.overhead_s"] = metric{overhead, "s"}
	fmt.Printf("tracing overhead: traced round %.4fs - untraced round %.4fs = %.4fs\n",
		median(tracedWalls), median(plainWalls), overhead)
	fmt.Println("note: phase boundaries are measured from outside and are approximate: the input reader returns EOF only after the layer's own buffering")

	path := filepath.Join(cfg.root, "spans", fmt.Sprintf("%s-seed%d.json", cfg.w.name, cfg.seed))
	err := tr.writeSpans(path, map[string]any{
		"workload": cfg.w.name,
		"seed":     cfg.seed,
		"note":     "start_ns/end_ns are relative to the tracer's start; self_s is a span's time minus its children's; output writes are counted, not spanned",
	})
	return res, err
}

// procMetricsOf derives the process metrics of an untraced round.
func procMetricsOf(rr roundResult) map[string]float64 {
	var d procDelta
	var elements int64
	for _, s := range rr.samples {
		d = d.add(s.proc)
		elements += s.elements
	}
	return map[string]float64{
		"proc.cpu_s":              d.cpu,
		"proc.cpu_util":           d.cpu / rr.wall,
		"proc.alloc_mb":           float64(d.allocBytes) / mb,
		"proc.allocs_per_element": float64(d.allocObjs) / float64(max(elements, 1)),
		"proc.gc_count":           float64(d.gcCycles),
		"proc.gc_pause_s":         float64(d.gcPauseNs) / 1e9,
	}
}
