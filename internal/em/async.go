package em

import (
	"sync"
)

// asyncEngine is the Device's submission/completion core for overlapped
// I/O (DESIGN.md §15). It owns two bounded pipelines:
//
//   - Write-behind: full frames are handed off to a single flusher
//     goroutine; the submitter acquires a fresh frame and keeps computing
//     while the flush runs. In-flight writes are mirrored in a pending map
//     so a concurrent read of the same block is served the new bytes, never
//     a stale backend copy.
//   - Read-ahead: readers schedule upcoming blocks of their extent tables
//     onto a single prefetch worker. Prefetched bytes land in engine-owned
//     frames; the logical read is charged only when (and if) the reader
//     consumes the block, which keeps the logical I/O ledger identical to
//     the synchronous device at every pipeline depth.
//
// Memory is real budget: NewEnv grants ReadAhead+WriteBehind blocks to the
// engine, and the engine never holds more frames than that — write-behind
// owns at most writeBehind frames (queue plus the one in the flusher's
// hands), read-ahead at most readAhead (tracked by tokens). The containment
// invariant live frames ≤ granted blocks therefore keeps holding with the
// pipelines running.
//
// Exactly two goroutines exist per engine regardless of depth, so at most
// two extra block operations can be in flight when a cancellation triggers;
// that keeps the drain inside the established ≤ 2P+4 promptness bound.
type asyncEngine struct {
	dev         *Device
	readAhead   int
	writeBehind int

	// Write-behind. writeMu serializes submissions against shutdown: a
	// submission holds the read lock across the queue send, so close() can
	// take the write lock only when no send is in flight, and the channel
	// close below never races a send. The queue capacity is writeBehind-1:
	// queued frames plus the one the flusher holds never exceed the grant.
	writeMu     sync.RWMutex
	writeClosed bool
	writeq      chan writeReq
	flushWG     sync.WaitGroup

	// pending mirrors every write-behind block that has not yet reached the
	// backend: block ID → latest submitted bytes plus the number of
	// submissions still in flight. Reads (sync and prefetch) consult it
	// before the backend.
	pendMu  sync.Mutex
	pending map[int64]*pendingWrite

	// Read-ahead. tokens is the unissued share of the readAhead grant; a
	// slot's frame is acquired from the pool when its token is taken and
	// released the moment the slot is consumed or abandoned, so an idle
	// engine pins no frames and the unwind invariant (FramesLive == 0 after
	// a run) holds unchanged. readMu/readClosed/readq mirror the write
	// side's shutdown protocol.
	readMu     sync.RWMutex
	readClosed bool
	readq      chan *prefetchSlot
	readWG     sync.WaitGroup

	frameMu sync.Mutex
	tokens  int
}

type writeReq struct {
	cat   Category
	id    int64
	frame Frame
	done  func(error)
}

type pendingWrite struct {
	data  []byte // latest submitted contents; valid while inFlight > 0
	count int    // submissions not yet flushed
}

// prefetchSlot is one scheduled read-ahead block. The worker fills frame
// and closes done. Exactly one of consume/abandon must follow.
type prefetchSlot struct {
	cat   Category
	id    int64
	frame Frame
	err   error
	done  chan struct{}
}

func newAsyncEngine(dev *Device, readAhead, writeBehind int) *asyncEngine {
	e := &asyncEngine{
		dev:         dev,
		readAhead:   readAhead,
		writeBehind: writeBehind,
		tokens:      readAhead,
	}
	if writeBehind > 0 {
		e.pending = make(map[int64]*pendingWrite)
		e.writeq = make(chan writeReq, writeBehind-1)
		e.flushWG.Add(1)
		go e.flushLoop()
	}
	if readAhead > 0 {
		e.readq = make(chan *prefetchSlot, readAhead)
		e.readWG.Add(1)
		go e.prefetchLoop()
	}
	return e
}

// submitWrite queues frame's contents to be written to block id, taking
// ownership of the frame. done fires exactly once, after the flush, with
// the write's error. It reports false — without queuing — when write-behind
// is unavailable (disabled or already shut down); the caller falls back to
// the synchronous WriteBlock.
func (e *asyncEngine) submitWrite(c Category, id int64, frame Frame, done func(error)) bool {
	if e == nil || e.writeBehind == 0 {
		return false
	}
	e.writeMu.RLock()
	defer e.writeMu.RUnlock()
	if e.writeClosed {
		return false
	}
	e.registerPending(id, frame.Bytes())
	req := writeReq{cat: c, id: id, frame: frame, done: done}
	select {
	case e.writeq <- req:
	default:
		// Queue full: the pipeline is the bottleneck right now. The stall
		// is surfaced in its own counter; the submission then waits like a
		// synchronous write would.
		e.dev.stats.AddFlushStalls(c, 1)
		e.writeq <- req
	}
	return true
}

func (e *asyncEngine) flushLoop() {
	defer e.flushWG.Done()
	for req := range e.writeq {
		err := e.dev.WriteBlock(req.cat, req.id, req.frame.Bytes())
		e.completePending(req.id, err != nil)
		e.dev.frames.Release(req.frame)
		req.done(err)
	}
}

func (e *asyncEngine) registerPending(id int64, data []byte) {
	e.pendMu.Lock()
	if p, ok := e.pending[id]; ok {
		p.data = data // later submission supersedes the earlier bytes
		p.count++
	} else {
		e.pending[id] = &pendingWrite{data: data, count: 1}
	}
	e.pendMu.Unlock()
}

func (e *asyncEngine) completePending(id int64, failed bool) {
	e.pendMu.Lock()
	if p, ok := e.pending[id]; ok {
		p.count--
		if p.count == 0 {
			if failed {
				// The backend never got these bytes. Copy them off the frame
				// (about to be recycled) and keep the entry poisoned: reads
				// continue to see the submitted data, never the stale backend
				// copy, while the error travels to the submitter's next touch
				// point. The entry lives until a newer submission for the
				// same block supersedes it or the run unwinds.
				p.data = append([]byte(nil), p.data...)
			} else {
				delete(e.pending, id)
			}
		}
	}
	e.pendMu.Unlock()
}

// lookupPending copies block id's in-flight write-behind bytes into dst and
// reports whether there was one. The copy happens under the lock, before
// the flusher can recycle the source frame, so the caller never observes
// torn or reused bytes.
func (e *asyncEngine) lookupPending(id int64, dst []byte) bool {
	if e == nil || e.writeBehind == 0 {
		return false
	}
	e.pendMu.Lock()
	p, ok := e.pending[id]
	if ok {
		copy(dst, p.data)
	}
	e.pendMu.Unlock()
	return ok
}

// tryPrefetch schedules an asynchronous read of block id, charging nothing
// yet. It returns nil — and the caller simply reads synchronously later —
// when read-ahead is disabled, shut down, or all tokens are issued; the
// non-blocking token acquisition means concurrent readers share the depth
// without ever deadlocking on each other.
func (e *asyncEngine) tryPrefetch(c Category, id int64) *prefetchSlot {
	if e == nil || e.readAhead == 0 {
		return nil
	}
	e.frameMu.Lock()
	if e.tokens == 0 {
		e.frameMu.Unlock()
		return nil
	}
	e.tokens--
	e.frameMu.Unlock()
	f := e.dev.frames.Acquire()

	s := &prefetchSlot{cat: c, id: id, frame: f, done: make(chan struct{})}
	e.readMu.RLock()
	defer e.readMu.RUnlock()
	if e.readClosed {
		e.recycle(f)
		return nil
	}
	e.readq <- s
	return s
}

func (e *asyncEngine) prefetchLoop() {
	defer e.readWG.Done()
	for s := range e.readq {
		s.err = e.dev.readBlockUncharged(s.cat, s.id, s.frame.Bytes())
		close(s.done)
	}
}

// consume hands the reader the prefetched frame for s in exchange for the
// frame it was using, charging the logical read exactly as the synchronous
// path would have: one Read plus its block of ReadBytes. On error the
// reader keeps its frame and gets the error the synchronous read would have
// produced at this touch point.
func (e *asyncEngine) consume(s *prefetchSlot, old Frame) (Frame, error) {
	<-s.done
	if s.err != nil {
		e.recycle(s.frame)
		return old, s.err
	}
	st, c, bs := e.dev.stats, s.cat, int64(e.dev.blockSize)
	st.AddPrefetchHits(c, 1)
	st.AddReads(c, 1)
	st.AddReadBytes(c, bs)
	e.recycle(old)
	return s.frame, nil
}

// abandon discards s without consuming it: the reader is closing or the
// block is no longer the one it needs. A completed fetch that nobody reads
// is pure waste — physical traffic with no logical charge — and is counted
// as such.
func (e *asyncEngine) abandon(s *prefetchSlot) {
	<-s.done
	if s.err == nil {
		e.dev.stats.AddPrefetchWasted(s.cat, 1)
	}
	e.recycle(s.frame)
}

// recycle returns an engine-owned frame to the frame pool and its token to
// the engine.
func (e *asyncEngine) recycle(f Frame) {
	e.dev.frames.Release(f)
	e.frameMu.Lock()
	e.tokens++
	e.frameMu.Unlock()
}

// shutdown stops both pipelines and reclaims engine-owned memory. Queued
// writes still execute (the device refuses them once closed, so a shutdown
// with the device already marked closed drains without touching the
// backend, delivering ErrClosed through each done callback); queued
// prefetches complete the same way and unblock anyone waiting on them.
// Outstanding prefetch slots remain their readers' responsibility — their
// frames come back through consume/abandon, exactly like every other
// component's unwind obligation.
func (e *asyncEngine) shutdown() {
	if e == nil {
		return
	}
	if e.writeq != nil {
		e.writeMu.Lock()
		if !e.writeClosed {
			e.writeClosed = true
			close(e.writeq)
		}
		e.writeMu.Unlock()
		e.flushWG.Wait()
	}
	if e.readq != nil {
		e.readMu.Lock()
		if !e.readClosed {
			e.readClosed = true
			close(e.readq)
		}
		e.readMu.Unlock()
		e.readWG.Wait()
	}
}
