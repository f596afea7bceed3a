package em

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
)

// asyncDevice builds a memory-backed device with the given pipeline depths
// installed, for engine-level tests that don't need an Env.
func asyncDevice(blockSize, readAhead, writeBehind int) *Device {
	dev := NewDevice(NewMemBackend(), blockSize, nil)
	dev.EnableAsync(readAhead, writeBehind)
	return dev
}

func fillPattern(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(int(seed) + i*7)
	}
	return p
}

// TestWriteBehindStreamRoundtrip proves the write-behind path produces a
// byte-identical stream with the same logical write ledger as the
// synchronous path.
func TestWriteBehindStreamRoundtrip(t *testing.T) {
	const bs = 128
	payload := fillPattern(10*bs+37, 3)

	runOne := func(wb int) ([]byte, int64, int64) {
		dev := asyncDevice(bs, 0, wb)
		defer dev.Close()
		s := NewStream(dev, CatScratch)
		w, err := s.NewWriter(nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(payload); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := s.NewReader(nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		got, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		return got, dev.Stats().Writes(CatScratch), dev.Stats().WriteBytes(CatScratch)
	}

	wantBytes, wantW, wantWB := runOne(0)
	if !bytes.Equal(wantBytes, payload) {
		t.Fatalf("synchronous roundtrip corrupted payload")
	}
	for _, wb := range []int{1, 2, 7} {
		got, writes, wbytes := runOne(wb)
		if !bytes.Equal(got, payload) {
			t.Fatalf("write-behind %d: payload corrupted", wb)
		}
		if writes != wantW || wbytes != wantWB {
			t.Fatalf("write-behind %d moved the logical write ledger: writes %d (want %d), bytes %d (want %d)",
				wb, writes, wantW, wbytes, wantWB)
		}
	}
}

// TestReadAheadStreamRoundtrip proves read-ahead leaves the logical read
// ledger untouched while actually pipelining (PrefetchHits > 0), and that
// the engine's frames all come home.
func TestReadAheadStreamRoundtrip(t *testing.T) {
	const bs = 128
	payload := fillPattern(20*bs+5, 9)

	baseline := func() (string, int64, int64) {
		dev := asyncDevice(bs, 0, 0)
		defer dev.Close()
		s := NewStream(dev, CatRunRead)
		w, _ := s.NewWriter(nil)
		w.Write(payload)
		w.Close()
		r, _ := s.NewReader(nil, 0)
		defer r.Close()
		got, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(got), dev.Stats().Reads(CatRunRead), dev.Stats().ReadBytes(CatRunRead)
	}
	wantBytes, wantR, wantRB := baseline()

	for _, ra := range []int{1, 3, 8} {
		dev := asyncDevice(bs, ra, 0)
		s := NewStream(dev, CatRunRead)
		w, _ := s.NewWriter(nil)
		w.Write(payload)
		w.Close()
		r, err := s.NewReader(nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(r)
		if err != nil {
			t.Fatalf("read-ahead %d: %v", ra, err)
		}
		if string(got) != wantBytes {
			t.Fatalf("read-ahead %d: payload corrupted", ra)
		}
		if reads, rb := dev.Stats().Reads(CatRunRead), dev.Stats().ReadBytes(CatRunRead); reads != wantR || rb != wantRB {
			t.Fatalf("read-ahead %d moved the logical read ledger: reads %d (want %d), bytes %d (want %d)",
				ra, reads, wantR, rb, wantRB)
		}
		if hits := dev.Stats().PrefetchHits(CatRunRead); hits == 0 {
			t.Fatalf("read-ahead %d: no prefetch hits — the pipeline never engaged", ra)
		}
		r.Close()
		dev.Close()
		if live := dev.Frames().Live(); live != 0 {
			t.Fatalf("read-ahead %d: %d frames live after close", ra, live)
		}
	}
}

// TestReadAheadEarlyCloseCountsWaste proves that prefetched-but-unconsumed
// blocks are surfaced as PrefetchWasted and never as logical Reads.
func TestReadAheadEarlyCloseCountsWaste(t *testing.T) {
	const bs = 128
	dev := asyncDevice(bs, 6, 0)
	defer dev.Close()
	s := NewStream(dev, CatRunRead)
	w, _ := s.NewWriter(nil)
	w.Write(fillPattern(30*bs, 1))
	w.Close()

	r, err := s.NewReader(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Touch the first block only: the pipeline behind it is now waste.
	one := make([]byte, 1)
	if _, err := r.Read(one); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	st := dev.Stats()
	if st.Reads(CatRunRead) != 1 {
		t.Fatalf("logical reads = %d, want exactly the 1 consumed block", st.Reads(CatRunRead))
	}
	if st.PrefetchWasted(CatRunRead) == 0 {
		t.Fatal("abandoned pipeline produced no PrefetchWasted count")
	}
	if live := dev.Frames().Live(); live != 0 {
		t.Fatalf("%d frames live after reader close (engine must reclaim abandoned slots)", live)
	}
}

// TestConcurrentReadersOneStream is the satellite coverage: many
// StreamReaders over one sealed stream, all prefetching from the shared
// token pool concurrently, each must see exactly the stream's bytes.
func TestConcurrentReadersOneStream(t *testing.T) {
	const bs = 96
	payload := fillPattern(40*bs+11, 5)
	dev := asyncDevice(bs, 4, 2)
	defer dev.Close()

	s := NewStream(dev, CatMergeRun)
	w, _ := s.NewWriter(nil)
	w.Write(payload)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	const readers = 8
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			off := int64(i) * int64(len(payload)) / readers
			r, err := s.NewReader(nil, off)
			if err != nil {
				errs <- err
				return
			}
			defer r.Close()
			got, err := io.ReadAll(r)
			if err != nil {
				errs <- fmt.Errorf("reader %d: %w", i, err)
				return
			}
			if !bytes.Equal(got, payload[off:]) {
				errs <- fmt.Errorf("reader %d: bytes diverge from offset %d", i, off)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if live := dev.Frames().Live(); live != 0 {
		t.Fatalf("%d frames live after all readers closed", live)
	}
}

// gateBackend blocks writes while the gate is held, so tests can pin a
// write-behind flush in flight deterministically.
type gateBackend struct {
	Backend
	mu   sync.Mutex
	gate chan struct{}
}

func (g *gateBackend) hold() {
	g.mu.Lock()
	g.gate = make(chan struct{})
	g.mu.Unlock()
}

func (g *gateBackend) release() {
	g.mu.Lock()
	if g.gate != nil {
		close(g.gate)
		g.gate = nil
	}
	g.mu.Unlock()
}

func (g *gateBackend) WriteAt(p []byte, off int64) (int, error) {
	g.mu.Lock()
	gate := g.gate
	g.mu.Unlock()
	if gate != nil {
		<-gate
	}
	return g.Backend.WriteAt(p, off)
}

// TestWriteBehindCoherence proves that while a write-behind for block ID is
// in flight, reads are served from the pending mirror, never the backend's
// old bytes — even after an earlier read of the old bytes.
func TestWriteBehindCoherence(t *testing.T) {
	const bs = 64
	t.Run("pending-map", func(t *testing.T) {
		gate := &gateBackend{Backend: NewMemBackend()}
		dev := NewDevice(gate, bs, nil)
		dev.EnableAsync(0, 2)
		defer dev.Close()

		id := dev.AllocBlock()
		v1 := fillPattern(bs, 1)
		v2 := fillPattern(bs, 2)
		if err := dev.WriteBlock(CatDataStack, id, v1); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, bs)
		if err := dev.ReadBlock(CatDataStack, id, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, v1) {
			t.Fatal("read before write-behind did not see v1")
		}

		// Pin the flush in flight and submit v2.
		gate.hold()
		frame := dev.Frames().Acquire()
		copy(frame.Bytes(), v2)
		flushed := make(chan error, 1)
		if !dev.WriteBlockBehind(CatDataStack, id, frame, func(err error) { flushed <- err }) {
			gate.release()
			t.Fatal("WriteBlockBehind refused on an async device")
		}

		// The write has NOT reached the backend; a read must still see v2.
		got := make([]byte, bs)
		if err := dev.ReadBlock(CatDataStack, id, got); err != nil {
			gate.release()
			t.Fatal(err)
		}
		if !bytes.Equal(got, v2) {
			gate.release()
			t.Fatal("read served stale bytes during in-flight write-behind")
		}

		gate.release()
		if err := <-flushed; err != nil {
			t.Fatalf("flush failed: %v", err)
		}
		// After the flush lands the backend itself must hold v2.
		if err := dev.ReadBlock(CatDataStack, id, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, v2) {
			t.Fatal("backend holds stale bytes after flush")
		}
	})
}

// TestAsyncCloseDrainsQueuedWrites proves closing the device with flushes
// still queued refuses them cleanly — callbacks fire with an error, frames
// come home, nothing deadlocks.
func TestAsyncCloseDrainsQueuedWrites(t *testing.T) {
	const bs = 64
	gate := &gateBackend{Backend: NewMemBackend()}
	dev := NewDevice(gate, bs, nil)
	dev.EnableAsync(0, 4)

	gate.hold()
	var ids []int64
	results := make(chan error, 4)
	for i := 0; i < 4; i++ {
		id := dev.AllocBlock()
		ids = append(ids, id)
		f := dev.Frames().Acquire()
		copy(f.Bytes(), fillPattern(bs, byte(i)))
		if !dev.WriteBlockBehind(CatScratch, id, f, func(err error) { results <- err }) {
			t.Fatalf("submit %d refused", i)
		}
	}
	_ = ids
	// Release the gate from a helper so Close (which waits for the
	// in-flight flush) can finish.
	go gate.release()
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		<-results
	}
	if live := dev.Frames().Live(); live != 0 {
		t.Fatalf("%d frames live after close", live)
	}
}
