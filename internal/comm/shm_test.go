package comm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// twoShmShards mirrors twoShards over the shared-memory fabric: two
// sharded 4-PE networks in one process, linked by a ring mesh in a
// temp directory. ringBytes sizes the rings (0 = a small 64 KiB so
// tests exercise realistic occupancy).
func twoShmShards(t *testing.T, ringBytes int) (n0, n1 *Network, t0, t1 *LinkTransport) {
	t.Helper()
	if ringBytes == 0 {
		ringBytes = 1 << 16
	}
	dir := t.TempDir()
	if err := CreateShmMesh(dir, 2, ringBytes); err != nil {
		t.Fatal(err)
	}
	owner := func(pe int) int { return pe / 2 }
	lat := LatencyModel{Alpha: 100, BetaPerByte: 1}
	n0, n1 = NewNetwork(4, lat), NewNetwork(4, lat)
	var err error
	if t0, err = NewShmTransport(0, 2, owner, dir); err != nil {
		t.Fatal(err)
	}
	if t1, err = NewShmTransport(1, 2, owner, dir); err != nil {
		t.Fatal(err)
	}
	if err := t0.Attach(n0, 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := t1.Attach(n1, 2, 4); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		t0.Retire()
		t1.Retire()
		t0.Close()
		t1.Close()
	})
	return n0, n1, t0, t1
}

func shmStart(t *testing.T, t0, t1 *LinkTransport) {
	t.Helper()
	if err := t0.Start(); err != nil {
		t.Fatal(err)
	}
	if err := t1.Start(); err != nil {
		t.Fatal(err)
	}
}

// TestShmTransportSend is TestSocketTransportSend over the ring
// fabric: bit-identical delivery, same latency accounting, in order.
func TestShmTransportSend(t *testing.T) {
	n0, n1, t0, t1 := twoShmShards(t, 0)
	for _, n := range []*Network{n0, n1} {
		if err := n.Register(EntityID(9), 2); err != nil {
			t.Fatal(err)
		}
	}
	shmStart(t, t0, t1)

	const count = 50
	for i := 0; i < count; i++ {
		msg := &Message{To: 9, From: 1, Tag: i, Data: []byte{byte(i), 2, 3, 4}, SendTime: float64(i) * 10, VTime: float64(i)}
		if err := n0.Endpoint(0).Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	dst := n1.Endpoint(2)
	waitFor(t, "cross-ring delivery", func() bool { return dst.Pending() == count })
	for i := 0; i < count; i++ {
		m := dst.Poll()
		if m.Tag != i {
			t.Fatalf("out of order: got tag %d at position %d", m.Tag, i)
		}
		wantArrival := float64(i)*10 + n0.Latency().Cost(4)
		if m.Arrival != wantArrival || m.Hops != 1 || m.VTime != float64(i) {
			t.Fatalf("msg %d: arrival %v want %v, hops %d, vtime %v", i, m.Arrival, wantArrival, m.Hops, m.VTime)
		}
	}
	if s := n0.Snapshot(); s.RemoteEnvelopes != count || s.RemotePayloads != count {
		t.Fatalf("sender snapshot: %+v", s)
	}
	if st := t0.SocketStats(); st.FramesSent != count || st.WriteSyscalls != 0 {
		t.Fatalf("shm stats (no syscalls, one frame per send): %+v", st)
	}
}

// TestShmTransportAggregated checks a flushed TRAM bucket crosses the
// ring as one frame.
func TestShmTransportAggregated(t *testing.T) {
	n0, n1, t0, t1 := twoShmShards(t, 0)
	for _, n := range []*Network{n0, n1} {
		for i := 0; i < 8; i++ {
			if err := n.Register(EntityID(100+i), 3); err != nil {
				t.Fatal(err)
			}
		}
	}
	n0.EnableAggregation(AggPolicy{MaxPayloads: 8})
	shmStart(t, t0, t1)

	src := n0.Endpoint(1)
	for i := 0; i < 8; i++ {
		if err := src.SendStream(&Message{To: EntityID(100 + i), From: 1, Data: []byte("abcd")}); err != nil {
			t.Fatal(err)
		}
	}
	dst := n1.Endpoint(3)
	waitFor(t, "aggregated delivery", func() bool { return dst.Pending() == 8 })
	if s := n0.Snapshot(); s.RemoteEnvelopes != 1 || s.RemotePayloads != 8 {
		t.Fatalf("remote envelope should carry all 8 payloads in one frame: %+v", s)
	}
	if st := t0.SocketStats(); st.FramesSent != 1 {
		t.Fatalf("ring frames: %+v", st)
	}
}

// TestShmTransportForward chases a migrated entity across the rings.
func TestShmTransportForward(t *testing.T) {
	n0, n1, t0, t1 := twoShmShards(t, 0)
	base := PinnedEntity | EntityID(1<<20)
	for _, n := range []*Network{n0, n1} {
		if err := n.RegisterRange(base, []int{1, 1}); err != nil {
			t.Fatal(err)
		}
	}
	shmStart(t, t0, t1)

	msg := &Message{To: base, From: 99, Data: []byte("chase me"), SendTime: 5}
	if err := n1.Endpoint(2).Send(msg); err != nil {
		t.Fatal(err)
	}
	old := n0.Endpoint(1)
	waitFor(t, "first hop", func() bool { return old.Pending() == 1 })
	got := old.Poll()

	for _, n := range []*Network{n0, n1} {
		if err := n.MoveRangeBatch(base, []RangeMove{{Index: 0, To: 3}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := old.Forward(got); err != nil {
		t.Fatal(err)
	}
	dst := n1.Endpoint(3)
	waitFor(t, "forwarded delivery", func() bool { return dst.Pending() == 1 })
	m := dst.Poll()
	if m.Hops != 2 || string(m.Data) != "chase me" {
		t.Fatalf("forwarded message: hops %d, data %q", m.Hops, m.Data)
	}
}

// TestShmTransportControl checks ring FIFO: an envelope published
// before a control frame is delivered before it.
func TestShmTransportControl(t *testing.T) {
	n0, n1, t0, t1 := twoShmShards(t, 0)
	for _, n := range []*Network{n0, n1} {
		if err := n.Register(EntityID(5), 0); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	var got []string
	t0.SetControlHandler(func(from int, kind uint32, payload []byte) {
		mu.Lock()
		got = append(got, fmt.Sprintf("%d/%d/%s", from, kind, payload))
		mu.Unlock()
	})
	shmStart(t, t0, t1)

	if err := n1.Endpoint(3).Send(&Message{To: 5, From: 2, Data: []byte("d")}); err != nil {
		t.Fatal(err)
	}
	if err := t1.SendControl(0, 7, []byte("done")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "control frame", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 1
	})
	if n0.Endpoint(0).Pending() != 1 {
		t.Fatal("envelope must precede the control frame in ring FIFO")
	}
	mu.Lock()
	if got[0] != "1/7/done" {
		t.Fatalf("control frame: %q", got[0])
	}
	mu.Unlock()
}

// TestShmTransportWrapAround drives far more bytes than the ring
// holds through a deliberately tiny ring, so the cursors wrap many
// times and frames straddle the boundary — order and content must
// survive, with the writer blocking (not corrupting) when full.
func TestShmTransportWrapAround(t *testing.T) {
	n0, n1, t0, t1 := twoShmShards(t, shmMinRing)
	for _, n := range []*Network{n0, n1} {
		if err := n.Register(EntityID(9), 2); err != nil {
			t.Fatal(err)
		}
	}
	shmStart(t, t0, t1)

	const count = 500
	payload := make([]byte, 100) // ~172-byte frames vs a 4 KiB ring
	done := make(chan error, 1)
	go func() {
		for i := 0; i < count; i++ {
			for j := range payload {
				payload[j] = byte(i + j)
			}
			if err := n0.Endpoint(0).Send(&Message{To: 9, From: 1, Tag: i, Data: payload}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	dst := n1.Endpoint(2)
	for i := 0; i < count; i++ {
		waitFor(t, "wrapped delivery", func() bool { return dst.Pending() > 0 })
		m := dst.Poll()
		if m.Tag != i {
			t.Fatalf("out of order after wrap: tag %d at %d", m.Tag, i)
		}
		for j, b := range m.Data {
			if b != byte(i+j) {
				t.Fatalf("frame %d corrupted at byte %d: %d != %d", i, j, b, byte(i+j))
			}
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestShmFrameTooLarge checks a frame that cannot ever fit the ring
// is rejected instead of deadlocking the writer.
func TestShmFrameTooLarge(t *testing.T) {
	_, _, t0, t1 := twoShmShards(t, shmMinRing)
	shmStart(t, t0, t1)
	if err := t0.SendControl(1, 9, make([]byte, 2*shmMinRing)); err == nil {
		t.Fatal("oversized frame must be rejected")
	}
}

// heapRing builds a shmRing over process memory (no file, no mmap) so
// hostile-image tests and the fuzz target can scribble on it cheaply.
// Backed by a []uint64 so the header atomics are aligned.
func heapRing(capacity int) *shmRing {
	words := make([]uint64, (shmHdrSize+capacity)/8)
	mem := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(words)*8)
	return &shmRing{
		mem:      mem,
		data:     mem[shmHdrSize:],
		capacity: uint64(capacity),
		head:     (*atomic.Uint64)(unsafe.Pointer(&mem[shmOffHead])),
		tail:     (*atomic.Uint64)(unsafe.Pointer(&mem[shmOffTail])),
		wclosed:  (*atomic.Uint32)(unsafe.Pointer(&mem[shmOffWCl])),
		rclosed:  (*atomic.Uint32)(unsafe.Pointer(&mem[shmOffRCl])),
	}
}

// publishRaw plants raw bytes as the ring's published region without
// any framing discipline — the hostile writer.
func publishRaw(r *shmRing, img []byte) {
	copy(r.data, img)
	r.head.Store(0)
	r.tail.Store(uint64(len(img)))
}

// TestShmRingHostile mirrors TestWireHostile for the ring framing:
// torn headers, zero-length frames, oversized claims, and claims
// beyond the published region must all error cleanly — never panic,
// never allocate beyond the claim ceiling.
func TestShmRingHostile(t *testing.T) {
	cases := []struct {
		name string
		img  []byte
	}{
		{"torn header 1B", []byte{7}},
		{"torn header 3B", []byte{7, 0, 0}},
		{"zero length", []byte{0, 0, 0, 0}},
		{"claim beyond published", []byte{200, 0, 0, 0, 1, 2, 3}},
		{"claim exceeds ring", binary.LittleEndian.AppendUint32(nil, uint32(shmMinRing))},
		{"claim max u32", []byte{0xff, 0xff, 0xff, 0xff}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := heapRing(shmMinRing)
			publishRaw(r, tc.img)
			if _, ok, err := r.readFrame(); err == nil {
				t.Fatalf("hostile image accepted (ok=%v)", ok)
			}
		})
	}
}

// TestShmRingRoundTrip pushes frames through a tiny heap ring across
// the wrap boundary and pops them back bit-for-bit.
func TestShmRingRoundTrip(t *testing.T) {
	r := heapRing(shmMinRing)
	frame := func(i, n int) []byte {
		f := binary.LittleEndian.AppendUint32(nil, uint32(1+n))
		f = append(f, frameControl)
		for j := 0; j < n; j++ {
			f = append(f, byte(i+j))
		}
		return f
	}
	next := 0
	popped := 0
	for popped < 200 {
		for next-popped < 8 && r.tryPush(frame(next, 101+next%53)) {
			next++
		}
		buf, ok, err := r.readFrame()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("ring empty with %d un-popped", next-popped)
		}
		want := frame(popped, 101+popped%53)[4:]
		if !bytes.Equal(buf, want) {
			t.Fatalf("frame %d mismatch", popped)
		}
		putBuf(buf)
		popped++
	}
}

// FuzzShmFrame drives arbitrary published images through readFrame:
// whatever the bytes claim, the reader must either pop a frame whose
// length matches its header or error — no panic, no runaway
// allocation, and the cursor never runs past the published region.
func FuzzShmFrame(f *testing.F) {
	f.Add([]byte{5, 0, 0, 0, 1, 9, 9, 9, 9})          // one valid 5-byte frame
	f.Add([]byte{1, 0, 0, 0, 2, 1, 0, 0, 0, 2})       // two minimal frames
	f.Add([]byte{0, 0, 0, 0})                         // zero length
	f.Add([]byte{255, 255, 255, 255, 1, 2, 3})        // hostile length
	f.Add(binary.LittleEndian.AppendUint32(nil, 800)) // claim > published
	f.Fuzz(func(t *testing.T, img []byte) {
		const capacity = 1 << 10
		if len(img) > capacity {
			img = img[:capacity]
		}
		r := heapRing(capacity)
		publishRaw(r, img)
		for {
			buf, ok, err := r.readFrame()
			if err != nil {
				return // rejected cleanly
			}
			if !ok {
				if got := r.readable(); got != 0 {
					t.Fatalf("reader stopped with %d bytes published", got)
				}
				return
			}
			if len(buf) == 0 || len(buf) > capacity-4 {
				t.Fatalf("popped frame of %d bytes", len(buf))
			}
			if r.head.Load() > r.tail.Load() {
				t.Fatal("head ran past tail")
			}
			putBuf(buf)
		}
	})
}

// TestShmReaderParksOncePerIdleStreak checks the Backoff accounting
// of an idle ring reader: exactly one park per idle streak however
// long it naps, and one wake when the next frame lands.
func TestShmReaderParksOncePerIdleStreak(t *testing.T) {
	_, _, t0, t1 := twoShmShards(t, 0)
	got := make(chan struct{}, 1)
	t1.SetControlHandler(func(int, uint32, []byte) { got <- struct{}{} })
	shmStart(t, t0, t1)

	waitFor(t, "the idle reader to park", func() bool { return t1.SocketStats().Parks == 1 })
	time.Sleep(20 * backoffNap) // many more naps in the same streak
	if st := t1.SocketStats(); st.Parks != 1 || st.Wakes != 0 {
		t.Fatalf("one idle streak: parks %d, wakes %d; want 1, 0", st.Parks, st.Wakes)
	}
	if err := t0.SendControl(1, 7, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("control frame never reached the parked reader")
	}
	if st := t1.SocketStats(); st.Parks != 1 || st.Wakes != 1 {
		t.Fatalf("after the frame: parks %d, wakes %d; want 1, 1", st.Parks, st.Wakes)
	}
	waitFor(t, "the second idle streak to park", func() bool { return t1.SocketStats().Parks == 2 })
	if st := t1.SocketStats(); st.Wakes != 1 {
		t.Fatalf("second streak: wakes %d, want 1", st.Wakes)
	}
}
