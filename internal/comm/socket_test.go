package comm

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// twoShards builds two sharded 4-PE networks in one test process —
// worker 0 owning PEs [0,2), worker 1 owning [2,4) — linked by a real
// unix-domain socket pair, with identical directory contents on both
// sides (the sharded-run invariant).
func twoShards(t *testing.T) (n0, n1 *Network, t0, t1 *LinkTransport) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "x.sock")
	l, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var accepted net.Conn
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		accepted, _ = l.Accept()
	}()
	dialed, err := net.Dial("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if accepted == nil {
		t.Fatal("accept failed")
	}

	owner := func(pe int) int { return pe / 2 }
	lat := LatencyModel{Alpha: 100, BetaPerByte: 1}
	n0, n1 = NewNetwork(4, lat), NewNetwork(4, lat)
	t0 = NewSocketTransport(0, 2, owner)
	t1 = NewSocketTransport(1, 2, owner)
	if err := t0.AddPeer(1, accepted); err != nil {
		t.Fatal(err)
	}
	if err := t1.AddPeer(0, dialed); err != nil {
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

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestSocketTransportSend sends PE0→PE2 across the socket and checks
// the message arrives bit-for-bit with the same latency accounting a
// local delivery would get.
func TestSocketTransportSend(t *testing.T) {
	n0, n1, _, _ := twoShards(t)
	for _, n := range []*Network{n0, n1} {
		if err := n.Register(EntityID(9), 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := t1Start(t, n0, n1); err != nil {
		t.Fatal(err)
	}

	const count = 50
	for i := 0; i < count; i++ {
		msg := &Message{To: 9, From: 1, Tag: i, Data: []byte{byte(i), 2, 3, 4}, SendTime: float64(i) * 10, VTime: float64(i)}
		if err := n0.Endpoint(0).Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	dst := n1.Endpoint(2)
	waitFor(t, "cross-process delivery", func() bool { return dst.Pending() == count })
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

	s := n0.Snapshot()
	if s.Sent != count || s.RemoteEnvelopes != count || s.RemotePayloads != count || s.RemoteBytes != count*4 {
		t.Fatalf("sender snapshot: %+v", s)
	}
	if s1 := n1.Snapshot(); s1.RemoteEnvelopes != 0 || s1.Sent != 0 {
		t.Fatalf("receiver snapshot should be clean: %+v", s1)
	}
}

// t1Start starts both transports (helper; Start needs all peers).
func t1Start(t *testing.T, n0, n1 *Network) error {
	t.Helper()
	if err := n0.Transport().(*LinkTransport).Start(); err != nil {
		return err
	}
	return n1.Transport().(*LinkTransport).Start()
}

// TestSocketTransportAggregated drives SendStream traffic across the
// shard boundary: a flushed TRAM bucket must cross as one wire
// envelope (coalescing preserved end to end).
func TestSocketTransportAggregated(t *testing.T) {
	n0, n1, t0, _ := twoShards(t)
	for _, n := range []*Network{n0, n1} {
		for i := 0; i < 8; i++ {
			if err := n.Register(EntityID(100+i), 3); err != nil {
				t.Fatal(err)
			}
		}
	}
	n0.EnableAggregation(AggPolicy{MaxPayloads: 8})
	if err := t1Start(t, n0, n1); err != nil {
		t.Fatal(err)
	}

	src := n0.Endpoint(1)
	for i := 0; i < 8; i++ {
		if err := src.SendStream(&Message{To: EntityID(100 + i), From: 1, Data: []byte("abcd")}); err != nil {
			t.Fatal(err)
		}
	}
	dst := n1.Endpoint(3)
	waitFor(t, "aggregated delivery", func() bool { return dst.Pending() == 8 })
	s := n0.Snapshot()
	if s.Envelopes != 1 || s.AggPayloads != 8 {
		t.Fatalf("agg stats: %+v", s)
	}
	if s.RemoteEnvelopes != 1 || s.RemotePayloads != 8 {
		t.Fatalf("remote envelope should carry all 8 payloads in one frame: %+v", s)
	}
	if st := t0.SocketStats(); st.FramesSent != 1 {
		t.Fatalf("wire frames: %+v", st)
	}
}

// TestSocketTransportForward moves an entity across the shard
// boundary mid-stream: messages arriving at the old owner must chase
// it over the socket via Endpoint.Forward.
func TestSocketTransportForward(t *testing.T) {
	n0, n1, _, _ := twoShards(t)
	base := PinnedEntity | EntityID(1<<20)
	for _, n := range []*Network{n0, n1} {
		if err := n.RegisterRange(base, []int{1, 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := t1Start(t, n0, n1); err != nil {
		t.Fatal(err)
	}

	// A message is sent while worker 1's directory still says PE 1...
	msg := &Message{To: base, From: 99, Data: []byte("chase me"), SendTime: 5}
	if err := n1.Endpoint(2).Send(msg); err != nil {
		t.Fatal(err)
	}
	old := n0.Endpoint(1)
	waitFor(t, "first hop", func() bool { return old.Pending() == 1 })
	got := old.Poll()

	// ...then the entity moves to PE 3 (worker 1) on both directories,
	// and the old owner forwards the straggler across the socket.
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
	if s := n0.Snapshot(); s.Forwards != 1 {
		t.Fatalf("forward count on worker 0: %+v", s)
	}
}

// TestSocketTransportControl checks control frames arrive in FIFO
// order with envelopes on the same link.
func TestSocketTransportControl(t *testing.T) {
	n0, n1, t0, t1 := twoShards(t)
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
	if err := t1Start(t, n0, n1); err != nil {
		t.Fatal(err)
	}

	// Data before control on the same link: the control frame must be
	// processed after the envelope is readable.
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
		t.Fatal("envelope must precede the control frame in link FIFO")
	}
	mu.Lock()
	if got[0] != "1/7/done" {
		t.Fatalf("control frame: %q", got[0])
	}
	mu.Unlock()
}

// TestSocketLinkHostile mirrors TestShmRingHostile for the socket
// link reader: a zero or oversized length prefix, a body cut short
// and an unknown type byte must each end in an error — never a clean
// EOF, never a panic — and a forged length must be rejected before
// the reader allocates what it claims.
func TestSocketLinkHostile(t *testing.T) {
	cases := []struct {
		name  string
		img   []byte
		claim uint64 // bytes the prefix claims, for the allocation check
	}{
		{"zero length", []byte{0, 0, 0, 0}, 0},
		{"length above limit", binary.LittleEndian.AppendUint32(nil, maxFrameLen+1), maxFrameLen + 1},
		{"length max u32", []byte{0xff, 0xff, 0xff, 0xff}, 1<<32 - 1},
		{"truncated body", append(binary.LittleEndian.AppendUint32(nil, 100), frameControl, 1, 2, 3), 0},
		{"unknown type", append(binary.LittleEndian.AppendUint32(nil, 3), 0x7f, 1, 2), 0},
		{"eof without goodbye", nil, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := net.Pipe()
			defer a.Close()
			l := newSockLink(a, nil, &linkStats{}, func(error) {})
			go func() {
				b.Write(tc.img)
				b.Close()
			}()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			buf, err := l.read()
			if err == nil {
				err = dispatchFrame(nil, nil, buf)
			}
			runtime.ReadMemStats(&after)
			if err == nil || err == io.EOF {
				t.Fatalf("hostile frame accepted (err %v)", err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; tc.claim > 0 && grew >= 1<<20 {
				t.Fatalf("reader allocated %d bytes for a frame claiming %d", grew, tc.claim)
			}
		})
	}
}

// TestSocketLinkGoodbye checks the one clean end of a socket link: a
// goodbye frame reads as io.EOF.
func TestSocketLinkGoodbye(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	l := newSockLink(a, nil, &linkStats{}, func(error) {})
	go func() {
		b.Write(goodbyeFrame)
		b.Close()
	}()
	if _, err := l.read(); err != io.EOF {
		t.Fatalf("goodbye read as %v, want io.EOF", err)
	}
}
