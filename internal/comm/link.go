// LinkTransport: the one multi-process Transport. Worker processes
// reach each peer over one link — a stream connection (unix-domain or
// TCP, socket.go) or a pair of shared-memory rings (shm.go) — and
// everything the fabrics share lives here: owner and peer checks,
// envelope and control framing, Broadcast, one reader goroutine per
// link, the hard-failure policy, Retire → Close ordering, and the
// counters. A link only writes a frame, reads a frame, reports its
// backlog and closes.
//
// Wire format, identical on every link: `u32 len | u8 type | body`.
// An envelope body is the PUP image of wire.go; a control body is
// `u32 from | u32 kind | payload`. Control frames are small typed
// blobs for the orchestration layer (termination barriers, migration
// records, step exchanges) and share the link FIFO with envelopes,
// which the shard layer exploits: a DONE sent after the last data
// frame is received after it too.
//
// Failure policy: a link fault before Retire (a read or write error,
// a corrupt frame, a peer that vanished without closing its link)
// marks the run broken and panics — a worker process dying mid-run is
// a hard error, there is no restart or rebalance protocol. A peer
// that closed its link cleanly ends the reader quietly: each link
// kind has its own goodbye (a close frame on sockets, the wclosed
// word on rings), so a crashed peer is never mistaken for a finished
// one.
package comm

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Frame types on a link.
const (
	frameEnvelope byte = 1
	frameControl  byte = 2
	frameGoodbye  byte = 3 // socket links: the sender closed cleanly
)

// maxFrameLen caps a claimed frame length (hostile-input guard: a
// forged prefix cannot make the reader allocate unbounded memory).
const maxFrameLen = 64 << 20

// ControlHandler receives control frames: the sending worker's index,
// the frame kind, and its payload. It runs on the link's reader
// goroutine — keep it quick and thread-safe. The payload slice is a
// view into a recycled read buffer and is valid only for the duration
// of the call: a handler that keeps the bytes must copy them.
type ControlHandler func(from int, kind uint32, payload []byte)

// link is one peer connection of a LinkTransport.
type link interface {
	// write sends one complete frame (length prefix included). The
	// frame is a recycled buffer whose ownership passes to the link.
	write(frame []byte) error
	// read blocks for the next frame and returns its type byte and
	// body in a recycled buffer the caller putBufs. It returns io.EOF
	// once the peer has closed the link cleanly, and an error once the
	// local transport is closing.
	read() ([]byte, error)
	// backlog is the frame bytes handed to the link that the far side
	// has not consumed yet, as far as this side can tell.
	backlog() int
	// close releases the link. The transport calls it once, after the
	// link's reader has returned.
	close()
}

// linkStats are the transport counters behind SocketStats.
type linkStats struct {
	writeBatches  atomic.Uint64
	writeSyscalls atomic.Uint64
	framesSent    atomic.Uint64
	bytesWritten  atomic.Uint64
	framesRecv    atomic.Uint64
	bytesRead     atomic.Uint64
	wakes         atomic.Uint64
	parks         atomic.Uint64
}

// LinkTransport bridges this process's PEs to its peers, one link per
// peer. Build it with NewSocketTransport (then AddPeer for every peer)
// or NewShmTransport, wire it to the network with Attach, install the
// control handler, then Start. A transport with no network attached
// carries control frames only.
type LinkTransport struct {
	self    int
	workers int
	owner   func(pe int) int // global PE → owning worker index
	network *Network
	ctrl    ControlHandler
	links   []link // links[w]: the link to worker w (nil for self)

	done    chan struct{} // closed by Close: writers flush, readers stop
	closed  atomic.Bool
	retired atomic.Bool
	wgR     sync.WaitGroup
	st      linkStats
}

func newLinkTransport(self, workers int, owner func(pe int) int) *LinkTransport {
	return &LinkTransport{
		self:    self,
		workers: workers,
		owner:   owner,
		links:   make([]link, workers),
		done:    make(chan struct{}),
	}
}

// SetControlHandler installs the control-frame callback (before
// Start).
func (t *LinkTransport) SetControlHandler(h ControlHandler) { t.ctrl = h }

// Attach shards n onto this transport: PEs [peLo, peHi) are local.
func (t *LinkTransport) Attach(n *Network, peLo, peHi int) error {
	if err := n.SetTransport(t, peLo, peHi); err != nil {
		return err
	}
	t.network = n
	return nil
}

// Start launches one reader goroutine per link. Every peer must have
// a link.
func (t *LinkTransport) Start() error {
	for w, l := range t.links {
		if w != t.self && l == nil {
			return fmt.Errorf("comm: Start: missing peer %d", w)
		}
	}
	for w, l := range t.links {
		if l != nil {
			t.wgR.Add(1)
			go t.readLoop(w, l)
		}
	}
	return nil
}

// Deliver implements Transport: encode msgs as one envelope frame —
// appended straight into a recycled buffer, no intermediate body
// slice — and write it on the link to the worker owning pe.
func (t *LinkTransport) Deliver(pe int, msgs []*Message) error {
	w := t.owner(pe)
	if w == t.self || w < 0 || w >= t.workers {
		return fmt.Errorf("comm: Deliver(%d): PE maps to worker %d (self %d)", pe, w, t.self)
	}
	frame, err := envelopeFrame(pe, msgs)
	if err != nil {
		return err
	}
	return t.send(w, frame)
}

// SendControl writes a control frame for peer worker w. FIFO with any
// envelopes previously written for w.
func (t *LinkTransport) SendControl(w int, kind uint32, payload []byte) error {
	if w == t.self || w < 0 || w >= t.workers {
		return fmt.Errorf("comm: SendControl(%d): invalid peer", w)
	}
	frame, err := controlFrame(t.self, kind, payload)
	if err != nil {
		return err
	}
	return t.send(w, frame)
}

// Broadcast sends a control frame to every peer.
func (t *LinkTransport) Broadcast(kind uint32, payload []byte) error {
	for w := range t.links {
		if w == t.self {
			continue
		}
		if err := t.SendControl(w, kind, payload); err != nil {
			return err
		}
	}
	return nil
}

// send hands a ready frame to the link to w and counts it.
func (t *LinkTransport) send(w int, frame []byte) error {
	n := uint64(len(frame))
	if err := t.links[w].write(frame); err != nil {
		return err
	}
	t.st.framesSent.Add(1)
	t.st.bytesWritten.Add(n)
	return nil
}

// envelopeFrame builds a complete envelope frame (length prefix, type
// byte, envelope image) in a recycled buffer.
func envelopeFrame(pe int, msgs []*Message) ([]byte, error) {
	n := 1 + envelopeWireSize(msgs)
	if n > maxFrameLen {
		return nil, fmt.Errorf("comm: frame of %d bytes exceeds the %d limit", n, maxFrameLen)
	}
	frame := getBuf(4 + n)
	frame = appendU32(frame, uint32(n))
	frame = append(frame, frameEnvelope)
	frame = appendEnvelope(frame, pe, msgs)
	return frame, nil
}

// controlFrame builds a complete control frame in a recycled buffer.
func controlFrame(self int, kind uint32, payload []byte) ([]byte, error) {
	n := 1 + 8 + len(payload)
	if n > maxFrameLen {
		return nil, fmt.Errorf("comm: frame of %d bytes exceeds the %d limit", n, maxFrameLen)
	}
	frame := getBuf(4 + n)
	frame = appendU32(frame, uint32(n))
	frame = append(frame, frameControl)
	frame = appendU32(frame, uint32(self))
	frame = appendU32(frame, kind)
	frame = append(frame, payload...)
	return frame, nil
}

// readLoop decodes frames off one link until the peer closes it, the
// transport closes, or a fault ends it.
func (t *LinkTransport) readLoop(w int, l link) {
	defer t.wgR.Done()
	for {
		buf, err := l.read()
		if err == nil {
			t.st.framesRecv.Add(1)
			t.st.bytesRead.Add(uint64(4 + len(buf)))
			err = dispatchFrame(t.network, t.ctrl, buf)
			putBuf(buf)
		}
		if err == io.EOF {
			return // the peer closed its side cleanly
		}
		if err != nil {
			t.linkFailed(w, err)
			return
		}
	}
}

// dispatchFrame routes one frame (type byte + body): envelopes to
// DeliverLocal, control frames to the handler. The buffer is only
// borrowed: by the time dispatchFrame returns nothing retains it.
func dispatchFrame(network *Network, ctrl ControlHandler, buf []byte) error {
	switch buf[0] {
	case frameEnvelope:
		pe, msgs, err := DecodeEnvelope(buf[1:])
		if err != nil {
			return err
		}
		if network == nil {
			return fmt.Errorf("comm: envelope frame on a control-only transport")
		}
		return network.DeliverLocal(pe, msgs)
	case frameControl:
		if len(buf) < 9 {
			return fmt.Errorf("control frame truncated: %d bytes", len(buf))
		}
		from := int(binary.LittleEndian.Uint32(buf[1:5]))
		kind := binary.LittleEndian.Uint32(buf[5:9])
		if ctrl != nil {
			ctrl(from, kind, buf[9:])
		}
		return nil
	default:
		return fmt.Errorf("unknown frame type %d", buf[0])
	}
}

// linkFailed enforces the hard-error policy: any link fault before
// Retire kills the process.
func (t *LinkTransport) linkFailed(w int, err error) {
	if t.closed.Load() || t.retired.Load() {
		return // expected teardown noise
	}
	panic(fmt.Sprintf("comm: worker %d: link to worker %d failed: %v", t.self, w, err))
}

// Retire marks the run complete: link faults after this point (peers
// tearing down first) are expected and ignored. Call once the
// termination barrier has been crossed, before Close.
func (t *LinkTransport) Retire() { t.retired.Store(true) }

// Close implements Transport: every link flushes what it was handed
// and stops its reader (closing done does both), then the links are
// released. Links close their outbound side without waiting for the
// peer, so two workers closing concurrently never wait on each other.
func (t *LinkTransport) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	close(t.done)
	t.wgR.Wait()
	for _, l := range t.links {
		if l != nil {
			l.close()
		}
	}
	return nil
}

// SocketStats snapshots the link counters (the name predates the
// shared-memory links, which report the same shape).
// FramesSent/WriteBatches is the mean frames coalesced per write —
// the amortization a socket link's writer buys; on ring links every
// frame is its own publish, WriteSyscalls is zero (no syscalls at
// all) and Wakes/Parks describe the readers' backoff instead.
type SocketStats struct {
	WriteBatches  uint64 // whole-queue drain passes (socket: net.Buffers writes; ring: publishes)
	WriteSyscalls uint64 // writev syscalls issued (1024-iovec chunks; 0 on shm)
	FramesSent    uint64 // frames handed to the links
	BytesWritten  uint64 // wire bytes handed to the links (frames + prefixes)
	FramesRecv    uint64 // frames decoded off the links
	BytesRead     uint64 // wire bytes read
	Wakes         uint64 // ring readers finding data after having parked
	Parks         uint64 // ring reader transitions from yielding to sleeping
}

// SocketStats returns the current link counters.
func (t *LinkTransport) SocketStats() SocketStats {
	return SocketStats{
		WriteBatches:  t.st.writeBatches.Load(),
		WriteSyscalls: t.st.writeSyscalls.Load(),
		FramesSent:    t.st.framesSent.Load(),
		BytesWritten:  t.st.bytesWritten.Load(),
		FramesRecv:    t.st.framesRecv.Load(),
		BytesRead:     t.st.bytesRead.Load(),
		Wakes:         t.st.wakes.Load(),
		Parks:         t.st.parks.Load(),
	}
}

// Backlog reports the frame bytes handed to the links but not yet
// consumed by the far side — the backpressure signal the adaptive
// aggregation policy keys on (Backlogger).
func (t *LinkTransport) Backlog() int {
	n := 0
	for _, l := range t.links {
		if l != nil {
			n += l.backlog()
		}
	}
	return n
}
