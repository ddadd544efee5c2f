// Shared-memory links for co-located workers. Processes on one host
// do not need the kernel to move bytes between them: this fabric maps
// one file per ordered worker pair (created at rendezvous by
// CreateShmMesh, before any worker starts) and runs a lock-free
// single-producer/single-consumer byte ring in each, so a Deliver is
// an envelope encode plus a memcpy into the peer's ring, and a
// receive is a memcpy out. Frames are the transport core's `u32 len |
// u8 type | body` (link.go), so everything above the fabric runs
// unchanged.
//
// Ring layout (one mmap'd file, header page + data):
//
//	off   0  u64 magic
//	off   8  u64 capacity        (power of two, data bytes)
//	off  64  u64 head            (reader cursor, absolute)
//	off 128  u64 tail            (writer cursor, absolute)
//	off 192  u32 wclosed         (writer: no more frames)
//	off 224  u32 rclosed         (reader: detached, stop writing)
//	off 256  data[capacity]
//
// head and tail are absolute byte counters (wrap = cursor &
// (capacity-1)), each on its own cache line, each written by exactly
// one side and read by the other through atomics — the classic SPSC
// ring, no cross-process locks anywhere. A frame is published by one
// release-store of tail after its bytes are in place, so the reader
// only ever observes whole frames; senders within one process
// serialize on the link's mutex (the SPSC "single producer" is the
// process, not a goroutine).
//
// Waiting is futex-free: an empty-ring reader and a full-ring writer
// both wait on the Backoff ladder, so a parked reader's wake latency
// is bounded by one nap — no descriptor, no syscall on the send side
// at all. wclosed is the ring's goodbye: a reader that finds it set
// and the ring drained ends cleanly.
package comm

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"unsafe"
)

const (
	shmMagic   uint64 = 0x6d6967666c6f7731 // "migflow1"
	shmHdrSize        = 256
	shmOffHead        = 64
	shmOffTail        = 128
	shmOffWCl         = 192
	shmOffRCl         = 224

	// shmMinRing is the smallest usable ring; a frame must fit whole.
	shmMinRing = 4096

	// DefaultShmRingBytes is the per-pair ring size CreateShmMesh uses
	// when not told otherwise. The shard workloads' frontiers are well
	// under 1 MiB; 4 MiB keeps even paper-scale BigSim step blobs a
	// single-publish affair.
	DefaultShmRingBytes = 4 << 20
)

// shmRing is one mapped SPSC ring (either direction of a pair).
type shmRing struct {
	f        *os.File
	mem      []byte
	data     []byte
	capacity uint64
	head     *atomic.Uint64
	tail     *atomic.Uint64
	wclosed  *atomic.Uint32
	rclosed  *atomic.Uint32
}

// ShmDir returns the directory ring files should live in: /dev/shm
// when it is a writable tmpfs (Linux), else the system temp dir.
// This matters more than it looks: a MAP_SHARED mapping of a
// disk-backed file (ext4 /tmp in most containers) takes a
// write-protect fault through the filesystem's writeback machinery
// every time a clean page is re-dirtied, which turns the ring's
// memcpy publish into tens of microseconds per frame. tmpfs pages
// are page cache with no writeback — the ring then costs what shared
// memory should.
func ShmDir() string {
	const devShm = "/dev/shm"
	if st, err := os.Stat(devShm); err == nil && st.IsDir() {
		if f, err := os.CreateTemp(devShm, "migflow-probe-*"); err == nil {
			f.Close()
			os.Remove(f.Name())
			return devShm
		}
	}
	return os.TempDir()
}

// ShmRingPath names the ring file carrying frames from worker `from`
// to worker `to` under the mesh directory.
func ShmRingPath(dir string, from, to int) string {
	return filepath.Join(dir, fmt.Sprintf("ring-%d-%d.shm", from, to))
}

// CreateShmMesh pre-creates every ordered-pair ring file for a
// workers-wide mesh under dir. The parent calls this before spawning
// workers, so no worker ever races file creation; each worker then
// opens its rings with NewShmTransport. ringBytes is the per-ring
// data capacity (0 = DefaultShmRingBytes; must be a power of two ≥
// shmMinRing).
func CreateShmMesh(dir string, workers, ringBytes int) error {
	if ringBytes == 0 {
		ringBytes = DefaultShmRingBytes
	}
	if ringBytes < shmMinRing || ringBytes&(ringBytes-1) != 0 {
		return fmt.Errorf("comm: shm ring size %d must be a power of two ≥ %d", ringBytes, shmMinRing)
	}
	for i := 0; i < workers; i++ {
		for j := 0; j < workers; j++ {
			if i == j {
				continue
			}
			if err := createShmRing(ShmRingPath(dir, i, j), ringBytes); err != nil {
				return err
			}
		}
	}
	return nil
}

func createShmRing(path string, capacity int) error {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return fmt.Errorf("comm: creating shm ring: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(int64(shmHdrSize + capacity)); err != nil {
		return fmt.Errorf("comm: sizing shm ring %s: %w", path, err)
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], shmMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(capacity))
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("comm: initializing shm ring %s: %w", path, err)
	}
	return nil
}

// openShmRing maps an existing ring file and validates its header.
func openShmRing(path string) (*shmRing, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("comm: opening shm ring: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := st.Size()
	if size < shmHdrSize+shmMinRing || size > shmHdrSize+(8<<30) {
		f.Close()
		return nil, fmt.Errorf("comm: shm ring %s has implausible size %d", path, size)
	}
	mem, err := mmapShared(f, int(size))
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("comm: mapping shm ring %s: %w", path, err)
	}
	r := &shmRing{
		f:       f,
		mem:     mem,
		data:    mem[shmHdrSize:],
		head:    (*atomic.Uint64)(unsafe.Pointer(&mem[shmOffHead])),
		tail:    (*atomic.Uint64)(unsafe.Pointer(&mem[shmOffTail])),
		wclosed: (*atomic.Uint32)(unsafe.Pointer(&mem[shmOffWCl])),
		rclosed: (*atomic.Uint32)(unsafe.Pointer(&mem[shmOffRCl])),
	}
	magic := binary.LittleEndian.Uint64(mem[0:])
	r.capacity = binary.LittleEndian.Uint64(mem[8:])
	if magic != shmMagic || r.capacity != uint64(len(r.data)) ||
		r.capacity&(r.capacity-1) != 0 || r.capacity < shmMinRing {
		r.close()
		return nil, fmt.Errorf("comm: %s is not a valid shm ring (magic %#x, capacity %d, file %d)", path, magic, r.capacity, size)
	}
	return r, nil
}

func (r *shmRing) close() {
	if r.mem != nil {
		munmapShared(r.mem)
		r.mem, r.data = nil, nil
	}
	r.f.Close()
}

// readable is the published byte count awaiting the reader.
func (r *shmRing) readable() uint64 { return r.tail.Load() - r.head.Load() }

// tryPush copies frame into the ring and publishes it with one
// release-store of tail; false when the ring lacks space. Caller is
// the single producer (holds the link's mutex).
func (r *shmRing) tryPush(frame []byte) bool {
	need := uint64(len(frame))
	tail := r.tail.Load()
	if r.capacity-(tail-r.head.Load()) < need {
		return false
	}
	off := tail & (r.capacity - 1)
	n1 := copy(r.data[off:], frame)
	copy(r.data, frame[n1:]) // wrap-around remainder (no-op when it fit)
	r.tail.Store(tail + need)
	return true
}

// readFrame pops the next whole frame into a recycled buffer (caller
// putBufs it after dispatch). Returns ok=false with nil error when
// the ring is empty. A corrupt image — torn header, zero or oversized
// length claim, or a length exceeding what was published — is an
// error: the protocol only ever publishes whole frames, so these
// cannot happen short of a scribbled mapping, and the hostile-input
// tests drive exactly those images through here.
func (r *shmRing) readFrame() (buf []byte, ok bool, err error) {
	avail := r.readable()
	if avail == 0 {
		return nil, false, nil
	}
	if avail < 4 {
		return nil, false, fmt.Errorf("comm: torn shm frame header: %d bytes published", avail)
	}
	head := r.head.Load()
	var hdr [4]byte
	r.copyOut(hdr[:], head)
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || uint64(n) > r.capacity-4 || n > maxFrameLen {
		return nil, false, fmt.Errorf("comm: shm frame length %d out of range (ring %d)", n, r.capacity)
	}
	if uint64(4)+uint64(n) > avail {
		return nil, false, fmt.Errorf("comm: torn shm frame: claims %d bytes with %d published", n, avail-4)
	}
	buf = getBuf(int(n))[:n]
	r.copyOut(buf, head+4)
	r.head.Store(head + 4 + uint64(n))
	return buf, true, nil
}

// copyOut copies len(dst) ring bytes starting at absolute position
// pos, handling wrap-around.
func (r *shmRing) copyOut(dst []byte, pos uint64) {
	off := pos & (r.capacity - 1)
	n1 := copy(dst, r.data[off:])
	copy(dst[n1:], r.data)
}

// NewShmTransport opens worker self's half of the ring mesh under dir
// (created beforehand by CreateShmMesh). owner maps a global PE index
// to its owning worker, exactly as for NewSocketTransport; it may be
// nil for a control-only transport that never Delivers envelopes.
func NewShmTransport(self, workers int, owner func(pe int) int, dir string) (*LinkTransport, error) {
	if self < 0 || self >= workers || workers < 2 {
		return nil, fmt.Errorf("comm: NewShmTransport: worker %d of %d", self, workers)
	}
	t := newLinkTransport(self, workers, owner)
	for w := 0; w < workers; w++ {
		if w == self {
			continue
		}
		out, err := openShmRing(ShmRingPath(dir, self, w))
		if err != nil {
			t.Close()
			return nil, err
		}
		in, err := openShmRing(ShmRingPath(dir, w, self))
		if err != nil {
			out.close()
			t.Close()
			return nil, err
		}
		t.links[w] = &shmLink{out: out, in: in, done: t.done, st: &t.st}
	}
	return t, nil
}

// shmLink is one ring link: the outbound ring this process produces
// into and the inbound ring its reader consumes.
type shmLink struct {
	mu   sync.Mutex // serializes local producers; orders against close
	out  *shmRing   // nil once closed
	in   *shmRing
	done <-chan struct{}
	st   *linkStats
}

// write publishes one frame into the outbound ring, waiting out a
// full ring on the Backoff ladder. The mutex both serializes local
// senders (SPSC's single producer) and orders against close, which
// takes it to mark the ring closed: a frame accepted here is
// published before the peer can observe wclosed.
func (l *shmLink) write(frame []byte) error {
	defer putBuf(frame)
	l.mu.Lock()
	defer l.mu.Unlock()
	r := l.out
	if r == nil {
		return fmt.Errorf("comm: shm link closed")
	}
	if uint64(len(frame)) > r.capacity {
		return fmt.Errorf("comm: frame of %d bytes exceeds shm ring capacity %d", len(frame), r.capacity)
	}
	var b Backoff
	for !r.tryPush(frame) {
		if r.rclosed.Load() != 0 {
			return fmt.Errorf("comm: shm ring reader detached")
		}
		select {
		case <-l.done:
			return fmt.Errorf("comm: shm link closed")
		default:
		}
		// A full ring means the reader's process is behind; give it
		// the core so it can drain.
		b.Wait()
	}
	l.st.writeBatches.Add(1)
	return nil
}

// read pops the next frame off the inbound ring, waiting on the
// Backoff ladder while it is empty; the wait is one idle streak, and
// its Backoff counts the streak's park and wake.
func (l *shmLink) read() ([]byte, error) {
	wait := Backoff{st: l.st}
	for {
		buf, ok, err := l.in.readFrame()
		if err != nil {
			return nil, err
		}
		if ok {
			wait.Reset()
			return buf, nil
		}
		// The writer stores wclosed after its last publish, so frames
		// published before the close are drained first.
		if l.in.wclosed.Load() != 0 && l.in.readable() == 0 {
			return nil, io.EOF
		}
		select {
		case <-l.done:
			return nil, fmt.Errorf("comm: shm link closed")
		default:
		}
		wait.Wait()
	}
}

// backlog is the bytes published to the peer but not yet consumed.
func (l *shmLink) backlog() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.out == nil {
		return 0
	}
	return int(l.out.readable())
}

// close marks the outbound ring closed (under the mutex, so in-flight
// writes finish publishing first), detaches from the inbound ring and
// unmaps both.
func (l *shmLink) close() {
	l.mu.Lock()
	l.out.wclosed.Store(1)
	l.out.close()
	l.out = nil
	l.mu.Unlock()
	l.in.rclosed.Store(1)
	l.in.close()
}
