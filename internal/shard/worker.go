// Package shard runs one Machine as a group of OS processes: each
// worker owns a contiguous PE range of the SAME machine configuration
// and bridges the rest over unix-domain or TCP sockets
// (comm.SocketTransport) or, for co-located workers, shared-memory
// rings (comm.ShmTransport). Every worker builds the identical job —
// directories, entity IDs, and the program tree are deterministic
// functions of the config — so the only cross-process state is
// message envelopes, migration records, and the control frames of the
// termination protocol. Virtual-time predictions are placement- and
// mode-invariant by construction (ampi/program.go), which is what
// makes a 2-process run's per-rank VT bitwise equal to the in-process
// run the equivalence suite compares against.
//
// Termination is the classic counting barrier adapted to migration:
// worker 0 coordinates. A worker reports DONE (with its install and
// acked-extract counters) whenever it is locally done — no unfinished
// local ranks, no extract awaiting its destination's ack — and the
// counters changed since its last report. The coordinator stops the
// run when every worker's latest report says done AND the global sum
// of installed records equals the global sum of acknowledged
// extracts: a record in flight (extracted but not yet installed, or
// installed but its rank still running) always leaves either the
// sums unequal or some worker un-done, so the barrier cannot trip
// while any rank is alive or in transit. Teardown is two-phase: on
// stop each worker retires its links and tells every peer so
// (RETIRED), and Close tears links down only after every peer has
// done the same — otherwise, with three or more workers, one closing
// early reads as a crash to a peer that has not yet seen stop. Worker
// failure remains a hard error (transport policy): there is no
// restart or rebalance.
package shard

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"migflow/internal/ampi"
	"migflow/internal/comm"
	"migflow/internal/core"
)

// Control-frame kinds on the shard wire.
const (
	ctrlDoneReport uint32 = 1 // worker → coordinator: u64 installs, u64 acked extracts
	ctrlRecord     uint32 = 2 // migration record → destination worker
	ctrlMoved      uint32 = 3 // u32 rank, u32 toPE → workers not party to a move
	ctrlAck        uint32 = 4 // destination → source: record installed
	ctrlStop       uint32 = 5 // coordinator → all: global termination
	ctrlBlob       uint32 = 6 // bigsim step frame over the shm fabric
	ctrlRetired    uint32 = 7 // all → all: sender treats link EOF as teardown now
)

// retireWait bounds how long Close waits for every peer's RETIRED
// frame (a peer that died mid-teardown must not hang the survivor).
const retireWait = 10 * time.Second

// Cut returns the first PE of worker i under the standard contiguous
// split of numPEs across workers (worker i owns [Cut(i), Cut(i+1))).
func Cut(numPEs, workers, i int) int { return i * numPEs / workers }

// OwnerOf maps a global PE to the worker owning it under Cut.
func OwnerOf(numPEs, workers, pe int) int {
	for w := 0; w < workers; w++ {
		if pe < Cut(numPEs, workers, w+1) {
			return w
		}
	}
	return workers - 1
}

// Worker is one process's share of a sharded job: its machine (local
// PE range), the job built on it, and the fabric transport (sockets
// or shared-memory rings) plus termination-protocol state.
type Worker struct {
	Index   int
	Workers int
	NumPEs  int
	M       *core.Machine
	Job     *ampi.Job
	T       comm.ShardTransport

	installs    atomic.Uint64 // records installed into this worker
	acked       atomic.Uint64 // this worker's extracts acknowledged
	outstanding atomic.Int64  // extracts shipped, ack pending
	movedOut    atomic.Int64

	stop     atomic.Bool
	stopOnce sync.Once

	// retiredPeers counts RETIRED frames; allRetired closes when every
	// peer has sent one, so Close can tear links down without a peer
	// still reading mistaking the EOF for a crash.
	retiredPeers atomic.Int64
	allRetired   chan struct{}

	repMu    sync.Mutex
	lastRep  [2]uint64
	reported bool

	// Coordinator state (worker 0 only): the latest report per worker.
	coordMu   sync.Mutex
	peerDone  []bool
	peerInst  []uint64
	peerExtra []uint64
}

// fabricTransport builds the ShardTransport the fabric selects:
// shared-memory rings when fab.Net is "shm", a socket transport over
// fab.Conns otherwise.
func fabricTransport(index, workers int, owner func(pe int) int, fab Fabric) (comm.ShardTransport, error) {
	if fab.Net == "shm" {
		return comm.NewShmTransport(index, workers, owner, fab.Dir)
	}
	t := comm.NewSocketTransport(index, workers, owner)
	for p, c := range fab.Conns {
		if err := t.AddPeer(p, c); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// NewWorker builds worker index's shard: a machine owning PEs
// [Cut(index), Cut(index+1)) of numPEs, the transport over the
// rendezvous fabric, and the job produced by build on that machine.
// The transport is started; the job is not.
func NewWorker(index, workers, numPEs int, fab Fabric, build func(*core.Machine) (*ampi.Job, error)) (*Worker, error) {
	lo, hi := Cut(numPEs, workers, index), Cut(numPEs, workers, index+1)
	if hi <= lo {
		return nil, fmt.Errorf("shard: worker %d of %d owns no PEs (%d total)", index, workers, numPEs)
	}
	m, err := core.NewMachine(core.Config{NumPEs: numPEs, LocalPELo: lo, LocalPEHi: hi})
	if err != nil {
		return nil, err
	}
	t, err := fabricTransport(index, workers, func(pe int) int { return OwnerOf(numPEs, workers, pe) }, fab)
	if err != nil {
		return nil, err
	}
	if err := t.Attach(m.Network(), lo, hi); err != nil {
		return nil, err
	}
	job, err := build(m)
	if err != nil {
		return nil, err
	}
	w := &Worker{
		Index: index, Workers: workers, NumPEs: numPEs,
		M: m, Job: job, T: t,
		peerDone: make([]bool, workers), peerInst: make([]uint64, workers), peerExtra: make([]uint64, workers),
		allRetired: make(chan struct{}),
	}
	if workers == 1 {
		close(w.allRetired)
	}
	t.SetControlHandler(w.control)
	if err := t.Start(); err != nil {
		return nil, err
	}
	return w, nil
}

// control dispatches shard-protocol frames; it runs on transport
// reader goroutines. Protocol violations are hard errors, matching
// the transport's failure policy.
func (w *Worker) control(from int, kind uint32, payload []byte) {
	switch kind {
	case ctrlRecord:
		if _, err := w.Job.ShardInstall(payload); err != nil {
			panic(fmt.Sprintf("shard: worker %d: installing record from worker %d: %v", w.Index, from, err))
		}
		w.installs.Add(1)
		if err := w.T.SendControl(from, ctrlAck, nil); err != nil {
			panic(fmt.Sprintf("shard: worker %d: ack to %d: %v", w.Index, from, err))
		}
		w.M.Wake()
	case ctrlMoved:
		if len(payload) < 8 {
			panic(fmt.Sprintf("shard: worker %d: short MOVED frame (%d bytes)", w.Index, len(payload)))
		}
		rank := int(binary.LittleEndian.Uint32(payload))
		toPE := int(binary.LittleEndian.Uint32(payload[4:]))
		if err := w.Job.ShardNoteMove(rank, toPE); err != nil {
			panic(fmt.Sprintf("shard: worker %d: MOVED(%d→%d): %v", w.Index, rank, toPE, err))
		}
	case ctrlAck:
		w.acked.Add(1)
		w.outstanding.Add(-1)
		w.M.Wake()
	case ctrlDoneReport:
		if len(payload) < 16 {
			panic(fmt.Sprintf("shard: worker %d: short DONE frame (%d bytes)", w.Index, len(payload)))
		}
		w.noteDone(from, binary.LittleEndian.Uint64(payload), binary.LittleEndian.Uint64(payload[8:]))
	case ctrlStop:
		w.enterStop()
	case ctrlRetired:
		if w.retiredPeers.Add(1) == int64(w.Workers-1) {
			close(w.allRetired)
		}
	default:
		panic(fmt.Sprintf("shard: worker %d: unknown control kind %d from worker %d", w.Index, kind, from))
	}
}

// enterStop marks global termination, once: the transport is retired
// first so peers tearing down concurrently no longer count as link
// faults, and every peer is told so (RETIRED) before this worker's Run
// can return and its Close can tear links down.
func (w *Worker) enterStop() {
	w.stopOnce.Do(func() {
		w.T.Retire()
		if err := w.T.Broadcast(ctrlRetired, nil); err != nil {
			panic(fmt.Sprintf("shard: worker %d: broadcasting retired: %v", w.Index, err))
		}
		w.stop.Store(true)
		w.M.Wake()
	})
}

// noteDone is the coordinator's half of the barrier (worker 0; its
// own reports come here directly).
func (w *Worker) noteDone(from int, installs, extracts uint64) {
	w.coordMu.Lock()
	w.peerDone[from] = true
	w.peerInst[from] = installs
	w.peerExtra[from] = extracts
	allDone, sumInst, sumExtra := true, uint64(0), uint64(0)
	for i := range w.peerDone {
		if !w.peerDone[i] {
			allDone = false
			break
		}
		sumInst += w.peerInst[i]
		sumExtra += w.peerExtra[i]
	}
	w.coordMu.Unlock()
	if allDone && sumInst == sumExtra && !w.stop.Load() {
		if err := w.T.Broadcast(ctrlStop, nil); err != nil {
			panic(fmt.Sprintf("shard: coordinator: broadcasting stop: %v", err))
		}
		w.enterStop()
	}
}

// doneCheck is the RunParallel completion callback: report local
// doneness (when it or the counters changed), return global stop.
func (w *Worker) doneCheck() bool {
	if w.Job.Done() && w.outstanding.Load() == 0 {
		rep := [2]uint64{w.installs.Load(), w.acked.Load()}
		w.repMu.Lock()
		fresh := !w.reported || rep != w.lastRep
		if fresh {
			w.reported, w.lastRep = true, rep
		}
		w.repMu.Unlock()
		if fresh {
			if w.Index == 0 {
				w.noteDone(0, rep[0], rep[1])
			} else {
				var buf [16]byte
				binary.LittleEndian.PutUint64(buf[:], rep[0])
				binary.LittleEndian.PutUint64(buf[8:], rep[1])
				if err := w.T.SendControl(0, ctrlDoneReport, buf[:]); err != nil {
					panic(fmt.Sprintf("shard: worker %d: DONE report: %v", w.Index, err))
				}
			}
		}
	}
	return w.stop.Load()
}

// Run starts the job and drives this worker's PEs until the global
// termination barrier trips.
func (w *Worker) Run() {
	w.Job.Start()
	w.M.RunParallel(w.doneCheck)
}

// Close flushes and tears the links down. Call after Run on every
// worker. It first waits (at most retireWait) for every peer's RETIRED
// frame: with three or more workers, a peer can still be reading from
// this worker when this one has already stopped.
func (w *Worker) Close() error {
	select {
	case <-w.allRetired:
	case <-time.After(retireWait):
	}
	return w.T.Close()
}

// Backoff for MigrateRanks' unproductive scans, mirroring the shm
// reader's ladder: a few scheduler yields, then OS yields (a bare
// Gosched spin starves the netpoller and co-located worker processes
// of the very CPU that would make a rank migratable — on one core it
// degrades each wait to sysmon's 10ms forced preemption), then
// millisecond naps once the job has been quiet for a while.
const (
	migSpinYields = 16
	migYieldSpins = 256
)

// MigrateRanks extracts up to n local ranks (whichever are parked at
// a plain Recv when scanned) and ships them to toWorker's first PE,
// mid-run, concurrently with the job. Returns the count actually
// moved; it stops early if the job completes first. Safe to call from
// a goroutine racing Run — that is the point.
func (w *Worker) MigrateRanks(n, toWorker int) int {
	if toWorker == w.Index || toWorker < 0 || toWorker >= w.Workers {
		return 0
	}
	toPE := Cut(w.NumPEs, w.Workers, toWorker)
	moved, idle := 0, 0
	for moved < n && !w.stop.Load() && !w.Job.Done() {
		progressed := false
		for r := 0; r < w.Job.Size() && moved < n; r++ {
			if !w.Job.ShardMigratable(r) {
				continue
			}
			// The outstanding count must cover the extract itself:
			// ShardExtract drops the job's remaining counter, and a
			// done-report in the gap between that drop and the count
			// bump could trip the barrier with the record unsent.
			w.outstanding.Add(1)
			data, err := w.Job.ShardExtract(r, toPE)
			if err != nil {
				w.outstanding.Add(-1)
				continue // raced a resume; try the next rank
			}
			var mv [8]byte
			binary.LittleEndian.PutUint32(mv[:], uint32(r))
			binary.LittleEndian.PutUint32(mv[4:], uint32(toPE))
			for p := 0; p < w.Workers; p++ {
				if p != w.Index && p != toWorker {
					if err := w.T.SendControl(p, ctrlMoved, mv[:]); err != nil {
						panic(fmt.Sprintf("shard: worker %d: MOVED to %d: %v", w.Index, p, err))
					}
				}
			}
			if err := w.T.SendControl(toWorker, ctrlRecord, data); err != nil {
				panic(fmt.Sprintf("shard: worker %d: record to %d: %v", w.Index, toWorker, err))
			}
			moved++
			progressed = true
		}
		if progressed {
			idle = 0
			continue
		}
		idle++
		switch {
		case idle <= migSpinYields:
			runtime.Gosched()
		case idle <= migSpinYields+migYieldSpins:
			comm.OSYield()
		default:
			time.Sleep(time.Millisecond)
		}
	}
	w.movedOut.Add(int64(moved))
	return moved
}
