package wire

import (
	"bufio"
	"net"
	"runtime"
	"sync"
)

const writeBufSize = 16 << 10 // a burst of probe frames or a few 32-operation batch frames, encoded in place

// frameWriter is the write half of one connection, shared by every
// goroutine that sends on it — callers on a client connection, the read
// loop and request handlers on a server one. Flushing is a property of the
// connection, not of the frame: send encodes into the buffer under mu,
// releases the lock, yields the processor once — so every other goroutine
// ready to send gets its frame in behind — and then flushes whatever is
// still buffered. A sender that finds the buffer empty was carried by
// another's write(2); a lone sender has nobody to yield to and flushes at
// once. That one yield alone decides "nobody else is about to write": a
// timer would tax the lone probe, and a count of requests in flight would
// let a handler parked on a group commit hold back everybody's replies,
// whereas a parked goroutine is not runnable and delays no flush. A
// quorum phase puts all its frames, yields once and flushes each
// connection once; a server read loop puts a burst's replies and flushes
// before it could block in read(2), with no yield.
//
// mu is not the connection's state mutex: a flush blocks while the kernel
// send buffer is full and the read loop must keep draining responses —
// with both peers stalled on flow control, one lock is a distributed
// deadlock.
type frameWriter struct {
	nc    net.Conn
	met   *wireMetrics
	yield func() // runtime.Gosched, the rule's one yield; tests substitute a barrier

	mu     sync.Mutex
	bw     *bufio.Writer
	frames int // buffered since the last flush
}

func newFrameWriter(nc net.Conn, met *wireMetrics) *frameWriter {
	return &frameWriter{nc: nc, met: met, yield: runtime.Gosched, bw: bufio.NewWriterSize(nc, writeBufSize)}
}

// send puts on the connection the one frame encode — called under w.mu
// with the free tail of the write buffer and the frame's request ID —
// appends; every caller's frame is known to encode by then. A write error
// is sticky in the bufio.Writer, so whoever flushes next sees it too; the
// caller that gets one tears the connection down, which fails each frame
// the flush carried exactly once.
func (w *frameWriter) send(id uint64, encode func(dst []byte, id uint64) []byte) error {
	if err := w.put(id, encode); err != nil {
		return err
	}
	w.yield()
	return w.flush()
}

// put is send without the flush: the frame waits in the buffer for
// whoever flushes next. A caller that puts several frames — a quorum
// phase, a server read loop answering a burst — flushes once, after the
// last.
func (w *frameWriter) put(id uint64, encode func(dst []byte, id uint64) []byte) error {
	w.mu.Lock()
	out := encode(w.bw.AvailableBuffer(), id)
	_, err := w.bw.Write(out)
	w.frames++
	w.mu.Unlock()
	if err != nil {
		return err
	}
	w.met.framesOut.Inc()
	w.met.bytesOut.Add(int64(len(out)))
	return nil
}

// flush writes out whatever is buffered; a buffer some other flush
// already carried costs nothing.
func (w *frameWriter) flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.bw.Buffered() == 0 {
		return nil
	}
	w.met.flushFrames.Observe(float64(w.frames))
	w.frames = 0
	return w.bw.Flush()
}
