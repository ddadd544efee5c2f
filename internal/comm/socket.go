// Socket links: worker processes hold one stream connection
// (unix-domain or TCP — anything net.Conn) to every peer. Each link
// has a dedicated writer goroutine that drains every frame queued
// since its last write into a single net.Buffers write — the
// writev-style coalescing that turns a burst of fine-grained envelopes
// into one syscall. Per link, frame order is the enqueue order, so the
// transport contract's in-order guarantee falls out of stream FIFO.
// On Close the writer flushes the queue, sends a goodbye frame and
// closes the connection, which also ends the local reader.
package comm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// goodbyeFrame is the last frame a socket link writes before closing
// its connection: it tells the peer's reader the EOF that follows is
// a clean close, not a crash.
var goodbyeFrame = []byte{1, 0, 0, 0, frameGoodbye}

// NewSocketTransport builds a transport for worker self of workers
// total; owner maps a global PE index to the worker owning it (nil
// for a control-only transport). Add one connection per peer with
// AddPeer before Start.
func NewSocketTransport(self, workers int, owner func(pe int) int) *LinkTransport {
	return newLinkTransport(self, workers, owner)
}

// AddPeer attaches the connection to peer worker idx and starts its
// writer. Must be called for every peer before Start.
func (t *LinkTransport) AddPeer(idx int, conn net.Conn) error {
	if idx < 0 || idx >= t.workers || idx == t.self {
		return fmt.Errorf("comm: AddPeer(%d): invalid peer for worker %d of %d", idx, t.self, t.workers)
	}
	if t.links[idx] != nil {
		return fmt.Errorf("comm: AddPeer(%d): duplicate peer", idx)
	}
	l := newSockLink(conn, t.done, &t.st, func(err error) { t.linkFailed(idx, err) })
	t.links[idx] = l
	go l.writeLoop()
	return nil
}

// sockLink is one socket link: a connection plus the pending frame
// queue its writer goroutine drains. Queued frames live in recycled
// buffers (bufpool.go); ownership passes write → drain, which returns
// them to the pool once the writev completes. spare/scratch are the
// writer-side slice recycling: spare is the previous batch's queue
// slice handed back for reuse, scratch the net.Buffers copy WriteTo
// is allowed to consume (it reslices its argument in place, and we
// still need the original frame pointers to recycle them).
type sockLink struct {
	conn    net.Conn
	br      *bufio.Reader
	hdr     [4]byte // the reader's length-prefix buffer (a local would escape)
	done    <-chan struct{}
	st      *linkStats
	fail    func(error) // the transport's failure policy, for writer errors
	stopped chan struct{}

	mu      sync.Mutex
	q       net.Buffers
	closing bool // set under mu by the writer's final pass
	qbytes  atomic.Int64
	kick    chan struct{}
	spare   net.Buffers
	scratch net.Buffers
}

func newSockLink(conn net.Conn, done <-chan struct{}, st *linkStats, fail func(error)) *sockLink {
	return &sockLink{
		conn:    conn,
		br:      bufio.NewReaderSize(conn, 1<<16),
		done:    done,
		st:      st,
		fail:    fail,
		stopped: make(chan struct{}),
		kick:    make(chan struct{}, 1),
	}
}

// write queues a ready frame for the writer.
func (l *sockLink) write(frame []byte) error {
	l.mu.Lock()
	// The closing check lives under mu so it orders against the
	// writer's final drain: a frame appended here is either flushed by
	// that drain or rejected, never silently dropped between the
	// writer's last pass and the connection teardown.
	if l.closing {
		l.mu.Unlock()
		putBuf(frame)
		return fmt.Errorf("comm: socket link closed")
	}
	l.q = append(l.q, frame)
	l.mu.Unlock()
	l.qbytes.Add(int64(len(frame)))
	select {
	case l.kick <- struct{}{}:
	default:
	}
	return nil
}

// writeLoop drains the pending queue into single net.Buffers writes —
// on unix/TCP connections Go issues these as writev, so every frame
// queued between two wakeups coalesces into (usually) one syscall.
// Once the transport closes it flushes, says goodbye and closes the
// connection.
func (l *sockLink) writeLoop() {
	defer close(l.stopped)
	for {
		select {
		case <-l.kick:
			l.drain()
		case <-l.done:
			l.mu.Lock()
			l.closing = true
			l.mu.Unlock()
			if l.drain() {
				if _, err := l.conn.Write(goodbyeFrame); err != nil {
					l.fail(err)
				}
			}
			l.conn.Close()
			return
		}
	}
}

// drain writes every queued frame in one batch, repeating until the
// queue stays empty, and recycles the frame buffers afterwards; false
// when a write failed (the failure policy has been applied). The
// WriteTo goes through a scratch copy of the batch because
// net.Buffers consumes (reslices) the slice it writes from — the
// original batch keeps the frame pointers the pool needs back.
func (l *sockLink) drain() bool {
	for {
		l.mu.Lock()
		batch := l.q
		l.q = l.spare[:0]
		l.spare = nil
		l.mu.Unlock()
		if len(batch) == 0 {
			l.spare = batch // hand the empty slice back for reuse
			return true
		}
		var bytes int64
		for _, b := range batch {
			bytes += int64(len(b))
		}
		l.st.writeBatches.Add(1)
		// Go's net.Buffers issues writev in chunks of up to 1024
		// iovecs, so the syscall count is derivable from the batch
		// size (partial writes can add more; this is the floor).
		l.st.writeSyscalls.Add(uint64((len(batch) + 1023) / 1024))
		l.qbytes.Add(-bytes)
		// wb and scratch share a backing array; WriteTo consumes wb
		// (advancing both the slice and its elements), scratch keeps
		// the original header so its capacity survives for next time.
		scratch := append(l.scratch[:0], batch...)
		wb := scratch
		_, err := wb.WriteTo(l.conn)
		l.scratch = scratch[:0]
		for i := range batch {
			putBuf(batch[i])
			batch[i] = nil
		}
		l.spare = batch[:0]
		if err != nil {
			l.fail(err)
			return false
		}
	}
}

// read decodes the next length-prefixed frame off the connection.
func (l *sockLink) read() ([]byte, error) {
	if _, err := io.ReadFull(l.br, l.hdr[:]); err != nil {
		return nil, noGoodbye(err)
	}
	n := binary.LittleEndian.Uint32(l.hdr[:])
	if n == 0 || n > maxFrameLen {
		return nil, fmt.Errorf("frame length %d out of range", n)
	}
	buf := getBuf(int(n))[:n]
	if _, err := io.ReadFull(l.br, buf); err != nil {
		putBuf(buf)
		return nil, noGoodbye(err)
	}
	if buf[0] == frameGoodbye {
		putBuf(buf)
		return nil, io.EOF
	}
	return buf, nil
}

// noGoodbye turns a bare EOF into an error: only a goodbye frame ends
// a socket link cleanly, a peer that vanished without one crashed.
func noGoodbye(err error) error {
	if err == io.EOF {
		return fmt.Errorf("connection closed without a goodbye frame: %w", io.ErrUnexpectedEOF)
	}
	return err
}

// backlog is the frame bytes queued but not yet written.
func (l *sockLink) backlog() int {
	return int(max(l.qbytes.Load(), 0))
}

// close waits for the writer, which flushed and closed the connection
// when the transport closed.
func (l *sockLink) close() { <-l.stopped }
